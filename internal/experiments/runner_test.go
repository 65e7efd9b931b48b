package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tdram/internal/dramcache"
	"tdram/internal/sim"
	"tdram/internal/system"
)

// fakeRunCell installs a runCell stub for the duration of the test, so
// runner-machinery tests don't pay for real simulations. The warmup
// image builder is stubbed alongside it with an empty image (its
// content would only feed real system runs). The stub result is a pure
// function of the cell so any schedule yields the same matrix.
func fakeRunCell(t *testing.T, fn func(cfg system.Config) (*system.Result, error)) {
	t.Helper()
	oldRun, oldBuild := runCell, buildImage
	runCell = func(cfg system.Config, _ *system.WarmupImage) (outcome, error) {
		res, err := fn(cfg)
		return outcome{res: res}, err
	}
	buildImage = func(system.Config) (*system.WarmupImage, error) { return &system.WarmupImage{}, nil }
	t.Cleanup(func() { runCell, buildImage = oldRun, oldBuild })
}

func fakeResult(cfg system.Config) *system.Result {
	return &system.Result{
		Design:   cfg.Cache.Design,
		Workload: cfg.Workload.Name,
		Runtime:  sim.Tick(1000 + 13*sim.Tick(len(cfg.Workload.Name))),
		Accesses: uint64(cfg.Cores * cfg.RequestsPerCore),
	}
}

// TestMatrixParallelDeterminism asserts the acceptance criterion: a
// jobs=8 sweep is bit-identical — per-cell Result statistics and every
// rendered report/CSV — to a jobs=1 sweep at the Quick scale. Under the
// race detector the comparison runs on a trimmed matrix (one workload
// per band, fewer requests) so the package fits the go test timeout;
// the full Quick-scale comparison still runs in every non-race pass.
func TestMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("serial quick matrix in -short mode")
	}
	var par, ser *Matrix
	var err error
	if raceEnabled {
		sc := Quick()
		sc.Workloads = sc.studySubset(2)
		sc.RequestsPerCore = 1000
		sc.WarmupPerCore = 200
		if par, err = RunMatrixOpts(sc, MatrixOptions{Jobs: 8}); err != nil {
			t.Fatal(err)
		}
		if ser, err = RunMatrixOpts(sc, MatrixOptions{Jobs: 1}); err != nil {
			t.Fatal(err)
		}
	} else {
		par = quickMatrix(t) // jobs=8 (see experiments_test.go)
		if ser, err = RunMatrixOpts(Quick(), MatrixOptions{Jobs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(ser.Results) != len(par.Results) {
		t.Fatalf("cell count: serial %d, parallel %d", len(ser.Results), len(par.Results))
	}
	for k, sr := range ser.Results {
		pr := par.Results[k]
		if pr == nil {
			t.Fatalf("%s/%v: missing from parallel matrix", k.Workload, k.Design)
		}
		if !reflect.DeepEqual(sr, pr) {
			t.Errorf("%s/%v: serial and parallel results differ:\nserial   %+v\nparallel %+v",
				k.Workload, k.Design, sr, pr)
		}
	}
	serReps, parReps := AllFromMatrix(ser), AllFromMatrix(par)
	for i := range serReps {
		if s, p := serReps[i].String(), parReps[i].String(); s != p {
			t.Errorf("%s: rendered report differs between serial and parallel runs", serReps[i].ID)
		}
		if s, p := serReps[i].CSV(), parReps[i].CSV(); s != p {
			t.Errorf("%s: CSV differs between serial and parallel runs", serReps[i].ID)
		}
	}
}

// TestMatrixFaultIsolation injects a panicking cell and asserts the
// sweep completes every other cell, reports the failure as a CellError,
// and still renders reports over the surviving workloads.
func TestMatrixFaultIsolation(t *testing.T) {
	sc := Quick()
	bad := Key{dramcache.TDRAM, sc.Workloads[1].Name}
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		if cfg.Cache.Design == bad.Design && cfg.Workload.Name == bad.Workload {
			panic("injected cell failure")
		}
		return fakeResult(cfg), nil
	})

	m, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 4})
	if err == nil {
		t.Fatal("no error from a sweep with a panicking cell")
	}
	var cerr *CellError
	if !errors.As(err, &cerr) {
		t.Fatalf("error %T does not unwrap to *CellError: %v", err, err)
	}
	if cerr.Design != bad.Design || cerr.Workload != bad.Workload {
		t.Errorf("CellError names %s/%v, want %s/%v", cerr.Workload, cerr.Design, bad.Workload, bad.Design)
	}
	if !strings.Contains(cerr.Err.Error(), "injected cell failure") {
		t.Errorf("CellError lost the panic value: %v", cerr.Err)
	}

	want := len(sc.Workloads)*len(MatrixDesigns()) - 1
	if len(m.Results) != want {
		t.Errorf("completed cells = %d, want %d (all but the injected failure)", len(m.Results), want)
	}
	if m.Get(bad.Design, bad.Workload) != nil {
		t.Error("failed cell present in the matrix")
	}
	if missing := m.MissingCells(); len(missing) != 1 || missing[0] != bad {
		t.Errorf("MissingCells = %v, want [%v]", missing, bad)
	}
	complete := m.CompleteWorkloads()
	if len(complete) != len(sc.Workloads)-1 {
		t.Errorf("CompleteWorkloads = %d, want %d", len(complete), len(sc.Workloads)-1)
	}
	for _, wl := range complete {
		if wl.Name == bad.Workload {
			t.Errorf("%s complete despite its failed cell", wl.Name)
		}
	}
	// Reports must render from the partial matrix (no nil dereference)
	// and name the skipped workload.
	for _, rep := range AllFromMatrix(m) {
		s := rep.String()
		if !strings.Contains(s, "SKIPPED 1 workload") || !strings.Contains(s, bad.Workload) {
			t.Errorf("%s: partial-matrix report does not name the skipped workload:\n%s", rep.ID, s)
		}
	}
}

// TestMatrixAllCellsFail asserts a sweep where everything fails returns
// an empty-but-usable matrix and one CellError per cell.
func TestMatrixAllCellsFail(t *testing.T) {
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		return nil, fmt.Errorf("boom")
	})
	sc := Quick()
	m, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 3})
	if err == nil {
		t.Fatal("no error from an all-failing sweep")
	}
	if len(m.Results) != 0 {
		t.Errorf("results = %d, want 0", len(m.Results))
	}
	cells := len(sc.Workloads) * len(MatrixDesigns())
	if missing := m.MissingCells(); len(missing) != cells {
		t.Errorf("MissingCells = %d, want %d", len(missing), cells)
	}
	if got := m.geoOver(func(string) float64 { t.Error("geoOver visited a workload"); return 1 }); got != 0 {
		t.Errorf("geoOver over empty matrix = %v, want 0", got)
	}
}

// TestMatrixCancelMidSweep cancels the sweep's context partway through
// and asserts the contract tdserve's deadlines (and tdbench's Ctrl-C)
// rely on: cells that started before the cancellation complete and land
// in the partial Matrix, every remaining cell fails immediately with a
// CellError wrapping ctx.Err(), and the joined error reports the
// cancellation via errors.Is.
func TestMatrixCancelMidSweep(t *testing.T) {
	sc := Quick()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const jobs = 2
	var mu sync.Mutex
	started := 0
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		mu.Lock()
		started++
		if started == 3 {
			cancel()
		}
		mu.Unlock()
		return fakeResult(cfg), nil
	})

	var cellErrs []error
	m, err := RunMatrixOpts(sc, MatrixOptions{
		Jobs:    jobs,
		Context: ctx,
		OnCell: func(k Key, res *system.Result, err error) {
			if err != nil {
				cellErrs = append(cellErrs, err)
			}
		},
	})
	if err == nil {
		t.Fatal("no error from a cancelled sweep")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("joined error does not report context.Canceled: %v", err)
	}
	total := len(sc.Workloads) * len(MatrixDesigns())
	// The cancelling cell and any cell already past the ctx check finish;
	// nothing else starts. With 2 workers at most one extra cell was in
	// flight alongside the cancelling one.
	if len(m.Results) < 3 || len(m.Results) > 3+jobs {
		t.Errorf("completed cells = %d, want 3..%d", len(m.Results), 3+jobs)
	}
	if len(m.Results) == total {
		t.Error("every cell completed despite the cancellation")
	}
	mu.Lock()
	ran := started
	mu.Unlock()
	if ran != len(m.Results) {
		t.Errorf("simulated %d cells but matrix holds %d", ran, len(m.Results))
	}
	// Every missing cell's failure is the cancellation, not a real error.
	if len(cellErrs) != total-len(m.Results) {
		t.Errorf("failed cells = %d, want %d", len(cellErrs), total-len(m.Results))
	}
	for _, e := range cellErrs {
		var cerr *CellError
		if !errors.As(e, &cerr) {
			t.Fatalf("cell failure %T does not unwrap to *CellError: %v", e, e)
		}
		if !errors.Is(cerr.Err, context.Canceled) {
			t.Errorf("cell %s/%v failed with %v, want context.Canceled", cerr.Workload, cerr.Design, cerr.Err)
		}
	}
	if got := len(m.MissingCells()); got != total-len(m.Results) {
		t.Errorf("missing cells = %d, want %d", got, total-len(m.Results))
	}
}

// TestMatrixFilterAndOnCell asserts Filter restricts the sweep to the
// selected cells (no simulation, no progress, no error for the rest) and
// OnCell delivers exactly the run cells in deterministic sweep order —
// the two hooks tdserve's checkpoint-restart is built on.
func TestMatrixFilterAndOnCell(t *testing.T) {
	sc := Quick()
	var mu sync.Mutex
	simulated := map[Key]int{}
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		mu.Lock()
		simulated[Key{cfg.Cache.Design, cfg.Workload.Name}]++
		mu.Unlock()
		return fakeResult(cfg), nil
	})

	keep := func(k Key) bool { return k.Design == dramcache.TDRAM || k.Workload == sc.Workloads[0].Name }
	var onCell []Key
	var progress []string
	m, err := RunMatrixOpts(sc, MatrixOptions{
		Jobs:     4,
		Filter:   keep,
		OnCell:   func(k Key, res *system.Result, err error) { onCell = append(onCell, k) },
		Progress: func(s string) { progress = append(progress, s) },
	})
	if err != nil {
		t.Fatal(err)
	}

	var want []Key
	for _, c := range sweepCells(sc) {
		if keep(Key{c.d, c.wl.Name}) {
			want = append(want, Key{c.d, c.wl.Name})
		}
	}
	if len(m.Results) != len(want) {
		t.Errorf("matrix cells = %d, want %d", len(m.Results), len(want))
	}
	if !reflect.DeepEqual(onCell, want) {
		t.Errorf("OnCell order:\n got %v\nwant %v", onCell, want)
	}
	if len(progress) != len(want) {
		t.Errorf("progress lines = %d, want %d", len(progress), len(want))
	}
	for k, n := range simulated {
		if !keep(k) {
			t.Errorf("filtered-out cell %s/%v was simulated", k.Workload, k.Design)
		}
		if n != 1 {
			t.Errorf("cell %s/%v simulated %d times", k.Workload, k.Design, n)
		}
	}
	if len(simulated) != len(want) {
		t.Errorf("simulated %d cells, want %d", len(simulated), len(want))
	}
}

// TestMatrixProgressOrdering asserts the progress stream is serialized
// and deterministic: a wide pool with scrambled completion times must
// emit exactly the serial sweep's lines, in the serial sweep's order.
func TestMatrixProgressOrdering(t *testing.T) {
	sc := Quick()
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		// Scramble completion order so in-order draining is actually
		// exercised rather than happening by accident.
		time.Sleep(time.Duration((int(cfg.Cache.Design)*7+len(cfg.Workload.Name))%5) * time.Millisecond)
		return fakeResult(cfg), nil
	})

	collect := func(jobs int) []string {
		var lines []string
		if _, err := RunMatrixOpts(sc, MatrixOptions{
			Jobs:     jobs,
			Progress: func(s string) { lines = append(lines, s) },
		}); err != nil {
			t.Fatal(err)
		}
		return lines
	}
	serial := collect(1)
	parallel := collect(8)
	if len(serial) != len(sc.Workloads)*len(MatrixDesigns()) {
		t.Fatalf("serial progress lines = %d", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("progress streams differ:\nserial:   %q\nparallel: %q", serial, parallel)
	}
	// Lines are in workload-major sweep order.
	i := 0
	for _, wl := range sc.Workloads {
		for _, d := range MatrixDesigns() {
			if !strings.HasPrefix(serial[i], fmt.Sprintf("%-8s %-12s", wl.Name, d.String())) {
				t.Fatalf("line %d = %q, want %s/%v", i, serial[i], wl.Name, d)
			}
			i++
		}
	}
}

// TestReproduceSimulatesEachConfigOnce sweeps every experiment at the
// Full scale with stubbed cells. The 227 study cells repeat 95 matrix
// cells and some of each other's, so the one sweep simulates 328
// distinct configs, each exactly once, and builds one image per image
// key: the 28 workloads, plus four more associativities for each of the
// six set-associativity study workloads.
func TestReproduceSimulatesEachConfigOnce(t *testing.T) {
	var mu sync.Mutex
	sims := map[cellKey]int{}
	builds := map[system.ImageKey]int{}
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		mu.Lock()
		sims[keyOf(cfg)]++
		mu.Unlock()
		return fakeResult(cfg), nil
	})
	buildImage = func(cfg system.Config) (*system.WarmupImage, error) {
		mu.Lock()
		builds[cfg.ImageKey()]++
		mu.Unlock()
		return &system.WarmupImage{}, nil
	}

	sc := Full()
	studyCells := 0
	for _, e := range registry {
		if e.study != nil {
			studyCells += len(e.study(sc).cells)
		}
	}
	if studyCells != 227 {
		t.Errorf("study cells = %d, want 227", studyCells)
	}
	ids := append(MatrixExperiments(), StudyExperiments()...)
	lines := 0
	reps, m, err := Reproduce(sc, ids, MatrixOptions{Jobs: 4, Progress: func(string) { lines++ }})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != 196 {
		t.Errorf("matrix cells = %d, want 196", len(m.Results))
	}
	for i, rep := range reps {
		if rep == nil {
			t.Errorf("%s: not rendered", ids[i])
		}
	}
	if len(sims) != 328 || lines != 328 {
		t.Errorf("simulated %d distinct configs with %d progress lines, want 328", len(sims), lines)
	}
	for k, n := range sims {
		if n != 1 {
			t.Errorf("%s/%v simulated %d times", k.wl.Name, k.cache.Design, n)
		}
	}
	if len(builds) != 52 {
		t.Errorf("built images for %d keys, want 52", len(builds))
	}
	for k, n := range builds {
		if n != 1 {
			t.Errorf("image %s/%d-way built %d times", k.Workload.Name, k.Ways, n)
		}
	}
}

// TestStudyFaultIsolation injects a panicking cell that only the
// flush-buffer ablation uses: it fails as one CellError, that study is
// left unrendered, and every other experiment still renders.
func TestStudyFaultIsolation(t *testing.T) {
	sc := Quick()
	bad := sc.studySubset(6)[0].Name
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		if cfg.Cache.FlushEntries == 1 && cfg.Workload.Name == bad {
			panic("injected study-cell failure")
		}
		return fakeResult(cfg), nil
	})
	ids := append(MatrixExperiments(), StudyExperiments()...)
	reps, m, err := Reproduce(sc, ids, MatrixOptions{Jobs: 4})
	var cerr *CellError
	if !errors.As(err, &cerr) {
		t.Fatalf("error %T does not unwrap to *CellError: %v", err, err)
	}
	if n := len(err.(interface{ Unwrap() []error }).Unwrap()); n != 1 {
		t.Errorf("%d cell errors, want 1", n)
	}
	if cerr.Design != dramcache.TDRAM || cerr.Workload != bad || !strings.Contains(cerr.Err.Error(), "injected study-cell failure") {
		t.Errorf("CellError = %v, want the injected %s/tdram panic", cerr, bad)
	}
	for i, rep := range reps {
		if (rep == nil) != (ids[i] == "abl-flush") {
			t.Errorf("%s: rendered = %v", ids[i], rep != nil)
		}
	}
	if want := len(sc.Workloads) * len(MatrixDesigns()); len(m.Results) != want {
		t.Errorf("matrix cells = %d, want %d", len(m.Results), want)
	}
}

// TestStudyCancelMidSweep cancels a studies-only sweep after its third
// cell: the cells already running finish, every other cell fails with a
// CellError wrapping context.Canceled, and no study renders from a
// partial cell list.
func TestStudyCancelMidSweep(t *testing.T) {
	sc := Quick()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const jobs = 2
	var mu sync.Mutex
	started := 0
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		mu.Lock()
		started++
		if started == 3 {
			cancel()
		}
		mu.Unlock()
		return fakeResult(cfg), nil
	})
	distinct := map[cellKey]bool{}
	for _, e := range registry {
		if e.study != nil {
			for _, cfg := range e.study(sc).cells {
				distinct[keyOf(cfg)] = true
			}
		}
	}

	reps, m, err := Reproduce(sc, StudyExperiments(), MatrixOptions{Jobs: jobs, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error does not report context.Canceled: %v", err)
	}
	if m != nil {
		t.Error("a studies-only sweep returned a matrix")
	}
	failed := err.(interface{ Unwrap() []error }).Unwrap()
	for _, e := range failed {
		var cerr *CellError
		if !errors.As(e, &cerr) || !errors.Is(cerr.Err, context.Canceled) {
			t.Errorf("cell failure %v, want a CellError wrapping context.Canceled", e)
		}
	}
	mu.Lock()
	ran := started
	mu.Unlock()
	if ran < 3 || ran > 3+jobs {
		t.Errorf("simulated %d cells, want 3..%d", ran, 3+jobs)
	}
	if ran+len(failed) != len(distinct) {
		t.Errorf("simulated %d + failed %d cells, want %d distinct", ran, len(failed), len(distinct))
	}
	for i, rep := range reps {
		if rep != nil {
			t.Errorf("%s rendered from a cancelled sweep", StudyExperiments()[i])
		}
	}
}

// TestCellKeyCoversConfig guards cellKey against drift: changing any
// system.Config field but the observational Obs.OnSample hook must
// change the key, or one sweep would merge two different cells.
func TestCellKeyCoversConfig(t *testing.T) {
	sc := Quick()
	base := sc.Config(dramcache.TDRAM, sc.Workloads[0])
	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			name := path + f.Name
			cfg := base
			v := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
			switch {
			case v.Kind() == reflect.Struct:
				walk(f.Type, idx, name+".")
				continue
			case name == "Obs.OnSample":
				continue
			case !v.CanSet():
				t.Fatalf("%s: unexported field", name)
			case v.Kind() == reflect.Bool:
				v.SetBool(!v.Bool())
			case v.CanInt():
				v.SetInt(v.Int() + 1)
			case v.CanUint():
				v.SetUint(v.Uint() + 1)
			case v.CanFloat():
				v.SetFloat(v.Float() + 0.5)
			case v.Kind() == reflect.String:
				v.SetString(v.String() + "x")
			default:
				t.Fatalf("%s: unhandled kind %v", name, v.Kind())
			}
			if keyOf(cfg) == keyOf(base) {
				t.Errorf("cellKey ignores Config.%s", name)
			}
		}
	}
	walk(reflect.TypeOf(base), nil, "")
}

// TestImageBuildFailure: a failed image build runs once and fails
// exactly its key's cells, each with the build's error (a panic here),
// while the other keys' cells complete — with and without an
// ImageCache, which keeps no failed build.
func TestImageBuildFailure(t *testing.T) {
	sc := budgetScale()
	bad := sc.Workloads[0].Name
	for _, images := range []*ImageCache{nil, NewImageCache(64 << 20)} {
		fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
			return fakeResult(cfg), nil
		})
		var mu sync.Mutex
		builds := map[string]int{}
		buildImage = func(cfg system.Config) (*system.WarmupImage, error) {
			mu.Lock()
			builds[cfg.Workload.Name]++
			mu.Unlock()
			if cfg.Workload.Name == bad {
				panic("injected build failure")
			}
			return &system.WarmupImage{}, nil
		}

		m, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 4, Images: images})
		if err == nil {
			t.Fatal("no error from a sweep whose image build failed")
		}
		failed := err.(interface{ Unwrap() []error }).Unwrap()
		if len(failed) != len(MatrixDesigns()) {
			t.Errorf("%d cell errors, want one per design of %s", len(failed), bad)
		}
		for _, e := range failed {
			var cerr *CellError
			if !errors.As(e, &cerr) || cerr.Workload != bad || !strings.Contains(cerr.Err.Error(), "injected build failure") {
				t.Errorf("cell failure %v, want a %s CellError carrying the build panic", e, bad)
			}
		}
		if builds[bad] != 1 {
			t.Errorf("failing image built %d times, want once", builds[bad])
		}
		if len(m.Results) != len(MatrixDesigns()) {
			t.Errorf("completed cells = %d, want the other workload's %d", len(m.Results), len(MatrixDesigns()))
		}
		for k := range m.Results {
			if k.Workload == bad {
				t.Errorf("%s/%v completed without its image", k.Workload, k.Design)
			}
		}
		if images != nil && images.Len() != 1 {
			t.Errorf("image cache keeps %d images, want only the built one", images.Len())
		}
	}
}

// TestInvalidCellFailsAlone: a cell whose config fails Validate fails
// alone, before it asks for its image key's image, so the key's valid
// cells still build the image and complete. The invalid cell comes
// first and the sweep has one worker, so without the check its config
// would build the key's image and fail it.
func TestInvalidCellFailsAlone(t *testing.T) {
	sc := btScale(t, 50)
	valid := firstCell(sc)
	invalid := valid
	invalid.MaxOutstanding = 0 // outside the image key
	if invalid.ImageKey() != valid.ImageKey() {
		t.Fatal("the invalid cell must share the valid cells' image key")
	}
	cells := []system.Config{invalid, valid, sc.Config(MatrixDesigns()[1], sc.Workloads[0])}
	runs := sweep(cells, MatrixOptions{Jobs: 1}, func(*cellRun) {})
	var cerr *CellError
	if !errors.As(runs[0].err, &cerr) || !strings.Contains(cerr.Err.Error(), "max outstanding") {
		t.Errorf("invalid cell: err = %v, want its Validate error", runs[0].err)
	}
	for i, r := range runs[1:] {
		if r.err != nil || r.out.res == nil {
			t.Errorf("valid cell %d: err = %v", i+1, r.err)
		}
	}
}
