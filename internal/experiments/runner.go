package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"tdram/internal/dramcache"
	"tdram/internal/system"
	"tdram/internal/workload"
)

// MatrixOptions configures a matrix sweep.
type MatrixOptions struct {
	// Jobs bounds how many (design, workload) cells simulate concurrently.
	// Zero or negative selects runtime.GOMAXPROCS(0). Every cell runs on
	// its own sim.Simulator with its own workload RNG state, so results
	// are bit-identical whatever Jobs is.
	Jobs int

	// Progress, when non-nil, receives one line per completed cell. It is
	// invoked from a single goroutine (the RunMatrixOpts caller's), in the
	// same workload-major cell order as a serial sweep regardless of which
	// worker finishes first, so the output of two runs can be diffed.
	Progress func(string)

	// Context, when non-nil, cancels the sweep between cells: once it is
	// done, no further cell starts simulating — each remaining cell fails
	// immediately with a CellError wrapping ctx.Err() — and RunMatrixOpts
	// returns the partial Matrix of the cells that completed before the
	// cancellation. A cell already simulating finishes (cells are the
	// cancellation granularity), so the longest wait after a cancel is
	// one cell, not the rest of the sweep. A nil Context never cancels.
	Context context.Context

	// Filter, when non-nil, restricts the sweep to the cells for which it
	// returns true. Skipped cells are not simulated, appear in neither
	// the Matrix nor the progress stream, and produce no error — they are
	// simply not part of this run. tdserve's checkpoint-restart resumes a
	// half-finished job by filtering out the cells its checkpoint already
	// holds.
	Filter func(Key) bool

	// OnCell, when non-nil, receives every run cell as it is drained:
	// exactly one call per cell, in the same deterministic workload-major
	// sweep order as Progress, from the caller's goroutine. Failed cells
	// are delivered with a nil Result and the *CellError; completed cells
	// with err == nil. tdserve checkpoints from this hook.
	OnCell func(Key, *system.Result, error)

	// Budget, when non-nil, gates cell simulation on a shared CPU-token
	// pool: the sweep registers one lease for its duration, and every
	// worker acquires a token before simulating a cell and releases it
	// after. Jobs stays the goroutine fan-out ceiling; the budget decides
	// how many of those goroutines may simulate at once, so several
	// sweeps sharing one budget split the host fairly instead of
	// oversubscribing it (see CPUBudget). Gating only reorders wall-clock
	// scheduling between independent cells — results stay bit-identical
	// to an ungated run. A nil Budget never gates.
	Budget *CPUBudget
}

// CellError records the failure of one (design, workload) cell of a
// matrix sweep. RunMatrixOpts aggregates them with errors.Join; callers
// can recover the failed coordinates with errors.As.
type CellError struct {
	Design   dramcache.Design
	Workload string
	Err      error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s/%v: %v", e.Workload, e.Design, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// runCell executes one cell from a warmup image of its own; tests
// replace it to inject faults (which also disables the fork path — see
// fakeRunCell).
var runCell = func(cfg system.Config) (*system.Result, error) {
	return system.Run(cfg)
}

// buildImage builds one workload's shared warmup image; tests replace it
// alongside runCell.
var buildImage = func(cfg system.Config) (*system.WarmupImage, error) {
	return system.BuildWarmupImage(cfg)
}

// runCellSafe executes one cell, forking from img when one is available
// and compatible, and converts a panicking simulation into a per-cell
// error so one broken cell cannot take down the rest of the sweep (or
// the finished part of it). It reports whether the cell forked from the
// shared image or replayed the warmup into an image of its own.
func runCellSafe(cfg system.Config, img *system.WarmupImage) (res *system.Result, forked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if img != nil {
		res, err = system.RunWithImage(cfg, img)
		if err == nil {
			return res, true, nil
		}
		if !errors.Is(err, system.ErrIncompatibleImage) {
			return nil, true, err // a real simulation failure, not a fork limitation
		}
		// This design's config cannot be seeded from the shared image;
		// this cell alone replays the warmup into an image of its own.
	}
	res, err = runCell(cfg)
	return res, false, err
}

// imageSet lazily builds at most one WarmupImage per workload, on
// whichever worker first reaches a cell of that workload; the other
// workers' cells block on the Once until it is ready. A build failure
// (error or panic) leaves the slot nil and every cell of the workload
// builds its own image.
type imageSet struct {
	sc   Scale
	once []sync.Once
	imgs []*system.WarmupImage
}

func newImageSet(sc Scale) *imageSet {
	return &imageSet{sc: sc, once: make([]sync.Once, len(sc.Workloads)), imgs: make([]*system.WarmupImage, len(sc.Workloads))}
}

func (is *imageSet) get(wi int) *system.WarmupImage {
	is.once[wi].Do(func() {
		defer func() { recover() }() // a broken build degrades to per-cell images
		// The image is design-independent; build it under the first matrix
		// design's config (any would do — compatibility is checked per cell).
		cfg := is.sc.Config(MatrixDesigns()[0], is.sc.Workloads[wi])
		if img, err := buildImage(cfg); err == nil {
			is.imgs[wi] = img
		}
	})
	return is.imgs[wi]
}

// cell is one (workload, design) coordinate in sweep order. wlIndex is
// the workload's position in Scale.Workloads — the warmup-image slot —
// carried explicitly so a Filter-trimmed cell list still forks every
// cell from the right image.
type cell struct {
	wl      workload.Spec
	d       dramcache.Design
	wlIndex int
}

// sweepCells enumerates the matrix in the canonical workload-major order
// every progress stream and failure report uses.
func sweepCells(sc Scale) []cell {
	var cells []cell
	for wi, wl := range sc.Workloads {
		for _, d := range MatrixDesigns() {
			cells = append(cells, cell{wl, d, wi})
		}
	}
	return cells
}

// RunMatrixOpts executes every (design, workload) cell of the sweep, up
// to opts.Jobs cells at a time. A failed cell (error or panic) does not
// abort the sweep: the remaining cells still run, the returned Matrix
// holds every completed cell, and the error joins one CellError per
// failure. The Matrix is always non-nil.
func RunMatrixOpts(sc Scale, opts MatrixOptions) (*Matrix, error) {
	cells := sweepCells(sc)
	if opts.Filter != nil {
		kept := cells[:0:0]
		for _, c := range cells {
			if opts.Filter(Key{c.d, c.wl.Name}) {
				kept = append(kept, c)
			}
		}
		cells = kept
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(cells) {
		jobs = len(cells)
	}

	// Workers pull cell indices and publish into per-cell slots; the
	// caller's goroutine drains the slots in sweep order, so Matrix
	// assembly and the Progress callback are single-threaded and the
	// progress stream is deterministic.
	results := make([]*system.Result, len(cells))
	errs := make([]error, len(cells))
	forked := make([]bool, len(cells))
	done := make([]chan struct{}, len(cells))
	for i := range done {
		done[i] = make(chan struct{})
	}
	images := newImageSet(sc)
	var lease *CPULease
	if opts.Budget != nil {
		lease = opts.Budget.Lease()
		defer lease.Close()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				if err := ctx.Err(); err != nil {
					// Cancelled between cells: fail the remaining cells
					// without simulating them. Cells already past this
					// check run to completion.
					errs[i] = &CellError{Design: c.d, Workload: c.wl.Name, Err: err}
					close(done[i])
					continue
				}
				if lease != nil {
					// The budget gate: simulation (including the shared
					// warmup-image build below) happens only under a held
					// token. A cancellation while queued for a token fails
					// the cell exactly like the between-cells check above.
					if err := lease.Acquire(ctx); err != nil {
						errs[i] = &CellError{Design: c.d, Workload: c.wl.Name, Err: err}
						close(done[i])
						continue
					}
				}
				res, fk, err := runCellSafe(sc.Config(c.d, c.wl), images.get(c.wlIndex))
				if lease != nil {
					lease.Release()
				}
				if err != nil {
					err = &CellError{Design: c.d, Workload: c.wl.Name, Err: err}
					res = nil
				}
				results[i], errs[i], forked[i] = res, err, fk
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range cells {
			next <- i
		}
		close(next)
	}()

	m := &Matrix{Scale: sc, Results: make(map[Key]*system.Result, len(cells))}
	var cellErrs []error
	for i, c := range cells {
		<-done[i]
		if opts.OnCell != nil {
			opts.OnCell(Key{c.d, c.wl.Name}, results[i], errs[i])
		}
		if err := errs[i]; err != nil {
			cellErrs = append(cellErrs, err)
			if opts.Progress != nil {
				opts.Progress(fmt.Sprintf("%-8s %-12s FAILED: %s",
					c.wl.Name, c.d.String(), firstLine(errors.Unwrap(err).Error())))
			}
			continue
		}
		res := results[i]
		m.Results[Key{c.d, c.wl.Name}] = res
		if opts.Progress != nil {
			warmup := "replay"
			if forked[i] {
				warmup = "fork"
			}
			opts.Progress(fmt.Sprintf("%-8s %-12s runtime=%-12v missratio=%.2f warmup=%s",
				c.wl.Name, c.d.String(), res.Runtime, res.Cache.Outcomes.MissRatio(), warmup))
		}
	}
	wg.Wait()
	return m, errors.Join(cellErrs...)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
