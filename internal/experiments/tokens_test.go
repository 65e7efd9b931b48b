package experiments

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdram/internal/system"
)

// budgetScale is a trimmed matrix for budget-machinery tests: the cells
// are stubbed, so the matrix only needs enough of them to exercise the
// schedule, not a representative workload set.
func budgetScale() Scale {
	sc := Quick()
	sc.Workloads = sc.studySubset(2)
	sc.RequestsPerCore = 100
	sc.WarmupPerCore = 10
	return sc
}

// TestTokenBudgetConservation pins the CPUBudget invariant under a
// saturated queue: several sweeps hammering one small budget never have
// more cells simulating concurrently than the pool holds, every sweep
// completes, and the pool drains back to zero.
func TestTokenBudgetConservation(t *testing.T) {
	const tokens = 2
	var inFlight, maxInFlight atomic.Int64
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // widen the overlap window
		inFlight.Add(-1)
		return fakeResult(cfg), nil
	})

	budget := NewCPUBudget(tokens)
	const sweeps = 3
	var wg sync.WaitGroup
	errs := make([]error, sweeps)
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunMatrixOpts(budgetScale(), MatrixOptions{
				Jobs:   4, // fan-out ceiling past the pool size
				Budget: budget,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("sweep %d: %v", i, err)
		}
	}
	if got := maxInFlight.Load(); got > tokens {
		t.Errorf("observed %d concurrent cells, budget holds %d tokens", got, tokens)
	}
	if got := budget.InUse(); got != 0 {
		t.Errorf("tokens still in use after all sweeps closed: %d", got)
	}
}

// TestBudgetGatedDeterminism pins the acceptance criterion for the
// budget gate: a sweep squeezed through a 1-token budget produces a
// matrix bit-identical to an ungated parallel sweep. The gate may only
// reorder wall-clock scheduling, never results.
func TestBudgetGatedDeterminism(t *testing.T) {
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		return fakeResult(cfg), nil
	})
	sc := budgetScale()
	gated, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 4, Budget: NewCPUBudget(1)})
	if err != nil {
		t.Fatal(err)
	}
	free, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(gated.Results) != len(free.Results) {
		t.Fatalf("cell count: gated %d, ungated %d", len(gated.Results), len(free.Results))
	}
	for k, fr := range free.Results {
		if gr := gated.Results[k]; !reflect.DeepEqual(fr, gr) {
			t.Errorf("%s/%v: gated result differs from ungated", k.Workload, k.Design)
		}
	}
}

// waitQueued returns once n goroutines are parked in CPUBudget.acquire,
// queued for a token. It polls the goroutine dump rather than sleeping,
// so a test can order events after the queueing without racing it.
func waitQueued(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<16)
	for {
		m := runtime.Stack(buf, true)
		if m == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		queued := 0
		for _, g := range strings.Split(string(buf[:m]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "(*CPUBudget).acquire(") {
				queued++
			}
		}
		if queued >= n {
			return
		}
		runtime.Gosched()
	}
}

// TestBudgetJoinFullPool: a sweep that joins a pool another sweep fills
// simulates cells before that sweep finishes. The early sweep's first
// cell holds the only token until the late sweep is queued for it;
// the token it returns goes to the late sweep, the longest waiter,
// ahead of the early sweep's next cell.
func TestBudgetJoinFullPool(t *testing.T) {
	early, late := budgetScale(), budgetScale()
	late.RequestsPerCore++ // tells the late sweep's cells apart
	holding, gate := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var order []int // RequestsPerCore of each simulated cell
	fakeRunCell(t, func(cfg system.Config) (*system.Result, error) {
		mu.Lock()
		order = append(order, cfg.RequestsPerCore)
		first := len(order) == 1
		mu.Unlock()
		if first {
			close(holding)
			<-gate
		}
		return fakeResult(cfg), nil
	})

	budget := NewCPUBudget(1)
	errs := make(chan error, 2)
	sweepOn := func(sc Scale) {
		_, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 1, Budget: budget})
		errs <- err
	}
	go sweepOn(early)
	<-holding
	go sweepOn(late)
	waitQueued(t, 1)
	close(gate)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	cells := len(early.Workloads) * len(MatrixDesigns())
	if len(order) != 2*cells {
		t.Fatalf("simulated %d cells, want %d", len(order), 2*cells)
	}
	if order[0] != early.RequestsPerCore || order[1] != late.RequestsPerCore {
		t.Errorf("first cells simulated: %v, want the early sweep's, then the late sweep's", order[:2])
	}
}

// TestBudgetAcquireCancellation pins the cancellation path: an acquire
// queued on a full pool returns its context's error once the context is
// done, and an acquire under a done context fails even with a token
// free, without taking it.
func TestBudgetAcquireCancellation(t *testing.T) {
	b := NewCPUBudget(1)
	if err := b.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.acquire(ctx) }()
	waitQueued(t, 1)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("queued acquire returned %v, want context.Canceled", err)
	}
	b.release()
	if err := b.acquire(ctx); err != context.Canceled {
		t.Fatalf("acquire under a done context returned %v, want context.Canceled", err)
	}
	if got := b.InUse(); got != 0 {
		t.Errorf("tokens in use after release: %d", got)
	}
}
