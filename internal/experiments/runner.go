package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"tdram/internal/dramcache"
	"tdram/internal/obs"
	"tdram/internal/system"
	"tdram/internal/workload"
)

// MatrixOptions configures a sweep: the matrix alone (RunMatrixOpts) or
// the matrix together with the studies (Reproduce).
type MatrixOptions struct {
	// Jobs bounds how many cells simulate concurrently. Zero or negative
	// selects runtime.GOMAXPROCS(0). Every cell runs on its own
	// sim.Simulator with its own workload RNG state, so results are
	// bit-identical whatever Jobs is.
	Jobs int

	// Progress, when non-nil, receives one line per completed cell. It is
	// invoked from a single goroutine (the caller's), in the sweep's cell
	// order regardless of which worker finishes first, so the output of
	// two runs can be diffed. A matrix sweep's order is workload-major.
	Progress func(string)

	// Context, when non-nil, cancels the sweep between cells: once it is
	// done, no further cell starts simulating — each remaining cell fails
	// immediately with a CellError wrapping ctx.Err() — and the sweep
	// returns what completed before the cancellation. A cell already
	// simulating finishes (cells are the cancellation granularity), so
	// the longest wait after a cancel is one cell, not the rest of the
	// sweep. A nil Context never cancels.
	Context context.Context

	// Filter, when non-nil, restricts the matrix to the cells for which
	// it returns true. Skipped cells are not simulated, appear in neither
	// the Matrix nor the progress stream, and produce no error — they are
	// simply not part of this run. tdserve's checkpoint-restart resumes a
	// half-finished job by filtering out the cells its checkpoint already
	// holds.
	Filter func(Key) bool

	// OnCell, when non-nil, receives every run matrix cell as it is
	// drained: exactly one call per cell, in the same deterministic
	// workload-major order as Progress, from the caller's goroutine.
	// Failed cells are delivered with a nil Result and the *CellError;
	// completed cells with err == nil. tdserve checkpoints from this hook.
	OnCell func(Key, *system.Result, error)

	// Budget, when non-nil, gates cell simulation on a shared CPU-token
	// pool: every worker acquires a token before simulating a cell and
	// releases it after. Jobs stays the goroutine fan-out ceiling; the
	// budget decides how many of those goroutines may simulate at once,
	// so several sweeps sharing one budget split the host instead of
	// oversubscribing it (see CPUBudget). Gating only reorders wall-clock
	// scheduling between independent cells — results stay bit-identical
	// to an ungated run. A nil Budget never gates.
	Budget *CPUBudget

	// Images, when non-nil, keeps warmup images across sweeps: each image
	// key's image comes from the cache, built there on the key's first
	// use by any sweep sharing it (see ImageCache). A nil Images builds
	// each image in the sweep and drops it after the key's last cell.
	// Results are bit-identical either way.
	Images *ImageCache
}

// CellError records the failure of one cell of a sweep, named by its
// design and workload. The sweeps aggregate them with errors.Join;
// callers can recover the failed coordinates with errors.As.
type CellError struct {
	Design   dramcache.Design
	Workload string
	Err      error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s/%v: %v", e.Workload, e.Design, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// outcome is one simulated cell: its Result, plus its observer when the
// cell's config turns one on (the latency study reads the journeys).
type outcome struct {
	res *system.Result
	obs *obs.Observer
}

// runCell simulates one cell, forking from its image key's image; tests
// replace it to inject faults.
var runCell = func(cfg system.Config, img *system.WarmupImage) (outcome, error) {
	sys, err := system.NewWithImage(cfg, img)
	if err != nil {
		return outcome{}, err
	}
	res, err := sys.Run()
	o := sys.Observer()
	if o != nil {
		o.Detach() // the outcome keeps the observer, not the finished model behind it
	}
	return outcome{res, o}, err
}

// buildImage builds one image key's shared warmup image; tests replace
// it alongside runCell.
var buildImage = system.BuildWarmupImage

// runCellSafe executes one cell and converts a panicking simulation into
// a per-cell error, so one broken cell cannot take down the rest of the
// sweep (or the finished part of it).
func runCellSafe(cfg system.Config, img *system.WarmupImage) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return runCell(cfg, img)
}

// imageSlot holds one image key's (system.ImageKey) warmup image for a
// sweep: fetched by the first worker to reach one of its cells (the
// others wait on the Once) from the sweep's ImageCache, which builds it
// unless it already holds it, and dropped when the key's last cell is
// done. A failed build (error or panic) runs once and fails every cell
// of the key.
type imageSlot struct {
	images *ImageCache
	once   sync.Once
	img    *system.WarmupImage
	err    error
	cells  []*cellRun // the key's distinct cells, in first-appearance order
	left   atomic.Int32
}

func (s *imageSlot) get(cfg system.Config) (*system.WarmupImage, error) {
	s.once.Do(func() { s.img, s.err = imageFor(s.images, cfg) })
	return s.img, s.err
}

// release marks one of the key's cells done. Every cell calls get, if
// at all, before its release, so the last release drops the sweep's
// hold on the image once no cell can need it (opts.Images may keep it).
func (s *imageSlot) release() {
	if s.left.Add(-1) == 0 {
		s.img = nil
	}
}

// cellRun is one distinct cell of a sweep.
type cellRun struct {
	cfg   system.Config
	first int // index of the first swept cell with this config
	slot  *imageSlot
	out   outcome
	err   error // a *CellError
	done  chan struct{}
}

func (r *cellRun) run(ctx context.Context, budget *CPUBudget) {
	defer r.slot.release()
	err := ctx.Err() // cancelled between cells: fail without simulating
	if err == nil {
		// An invalid cell fails alone, before it can fail the image build
		// its key's valid cells share.
		err = r.cfg.Validate()
	}
	if err == nil && budget != nil {
		// The budget gate: simulation (including the shared warmup-image
		// build) happens only under a held token. A cancellation while
		// queued for a token fails the cell like the check above.
		if err = budget.acquire(ctx); err == nil {
			defer budget.release()
		}
	}
	var img *system.WarmupImage
	if err == nil {
		img, err = r.slot.get(r.cfg)
	}
	if err == nil {
		r.out, err = runCellSafe(r.cfg, img)
	}
	if err != nil {
		r.out, r.err = outcome{}, &CellError{Design: r.cfg.Cache.Design, Workload: r.cfg.Workload.Name, Err: err}
	}
}

func (r *cellRun) progress() string {
	name, d := r.cfg.Workload.Name, r.cfg.Cache.Design.String()
	if r.err != nil {
		return fmt.Sprintf("%-8s %-12s FAILED: %s", name, d, firstLine(errors.Unwrap(r.err).Error()))
	}
	return fmt.Sprintf("%-8s %-12s runtime=%-12v missratio=%.2f",
		name, d, r.out.res.Runtime, r.out.res.Cache.Outcomes.MissRatio())
}

// sweep is the one cell runner. It simulates each distinct cell config
// once (equal configs produce identical outcomes), forking it from its
// image key's shared warmup image (see system.ImageKey), up to
// opts.Jobs at a time under opts.Budget and opts.Context. The distinct cells run grouped by image key, keys
// in first-appearance order, so each image is dropped soon after it is
// built, unless opts.Images keeps it for later sweeps. drained receives
// every distinct cell once, in that order, from the caller's goroutine,
// after its progress line. sweep returns the run of every input cell;
// equal cells share one.
func sweep(cells []system.Config, opts MatrixOptions, drained func(*cellRun)) []*cellRun {
	runs := make([]*cellRun, len(cells))
	byConfig := make(map[system.Config]*cellRun)
	byImage := make(map[system.ImageKey]*imageSlot)
	var slots []*imageSlot
	for i, cfg := range cells {
		r := byConfig[cfg]
		if r == nil {
			ik := cfg.ImageKey()
			s := byImage[ik]
			if s == nil {
				s = &imageSlot{images: opts.Images}
				byImage[ik] = s
				slots = append(slots, s)
			}
			r = &cellRun{cfg: cfg, first: i, slot: s, done: make(chan struct{})}
			s.cells = append(s.cells, r)
			byConfig[cfg] = r
		}
		runs[i] = r
	}
	var order []*cellRun
	for _, s := range slots {
		s.left.Store(int32(len(s.cells)))
		order = append(order, s.cells...)
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	jobs = min(jobs, len(order))
	// Workers publish into the runs; the caller's goroutine drains them in
	// order, so progress and the drained callback are single-threaded and
	// deterministic.
	next := make(chan *cellRun)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				r.run(ctx, opts.Budget)
				close(r.done)
			}
		}()
	}
	go func() {
		for _, r := range order {
			next <- r
		}
		close(next)
	}()
	for _, r := range order {
		<-r.done
		if opts.Progress != nil {
			opts.Progress(r.progress())
		}
		drained(r)
	}
	wg.Wait()
	return runs
}

// cell is one (workload, design) coordinate of the matrix.
type cell struct {
	wl workload.Spec
	d  dramcache.Design
}

// sweepCells enumerates the matrix in the canonical workload-major order
// every progress stream and failure report uses.
func sweepCells(sc Scale) []cell {
	var cells []cell
	for _, wl := range sc.Workloads {
		for _, d := range MatrixDesigns() {
			cells = append(cells, cell{wl, d})
		}
	}
	return cells
}

// run sweeps the matrix (when withMatrix; opts.Filter trims it) and the
// studies' cells as one set on the one cell runner. It returns the
// Matrix of every completed matrix cell, each study's report (nil when
// one of its cells failed), and one CellError per failed distinct cell,
// joined.
func (sc Scale) run(withMatrix bool, studies []study, opts MatrixOptions) (*Matrix, []*Report, error) {
	var cells []system.Config
	var keys []Key
	if withMatrix {
		for _, c := range sweepCells(sc) {
			if k := (Key{c.d, c.wl.Name}); opts.Filter == nil || opts.Filter(k) {
				cells = append(cells, sc.Config(c.d, c.wl))
				keys = append(keys, k)
			}
		}
	}
	for _, st := range studies {
		cells = append(cells, st.cells...)
	}

	m := &Matrix{Scale: sc, Results: make(map[Key]*system.Result, len(keys))}
	var errs []error
	runs := sweep(cells, opts, func(r *cellRun) {
		if r.err != nil {
			errs = append(errs, r.err)
		}
		if r.first >= len(keys) {
			return // a study's own cell
		}
		k := keys[r.first]
		if opts.OnCell != nil {
			opts.OnCell(k, r.out.res, r.err)
		}
		if r.err == nil {
			m.Results[k] = r.out.res
		}
	})

	runs = runs[len(keys):]
	reps := make([]*Report, len(studies))
	for i, st := range studies {
		outs := make(outcomes, len(st.cells))
		for j, r := range runs[:len(st.cells)] {
			if r.err != nil {
				outs = nil
				break
			}
			outs[j] = r.out
		}
		if outs != nil {
			reps[i] = st.render(outs)
		}
		runs = runs[len(st.cells):]
	}
	return m, reps, errors.Join(errs...)
}

// RunMatrixOpts executes every (design, workload) cell of the sweep, up
// to opts.Jobs cells at a time. A failed cell (error or panic) does not
// abort the sweep: the remaining cells still run, the returned Matrix
// holds every completed cell, and the error joins one CellError per
// failure. The Matrix is always non-nil.
func RunMatrixOpts(sc Scale, opts MatrixOptions) (*Matrix, error) {
	m, _, err := sc.run(true, nil, opts)
	return m, err
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
