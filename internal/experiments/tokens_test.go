package experiments

import (
	"context"
	"reflect"
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
				Jobs:   4, // fan-out ceiling well past the fair share
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
	if got := budget.Leases(); got != 0 {
		t.Errorf("leases still registered after all sweeps closed: %d", got)
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

// TestCPULeaseFairShare exercises the share arithmetic directly: a lone
// lease may hold the whole pool; a second lease halves the cap; the
// share floor keeps every lease entitled to one token.
func TestCPULeaseFairShare(t *testing.T) {
	b := NewCPUBudget(4)
	ctx := context.Background()

	l1 := b.Lease()
	for i := 0; i < 4; i++ {
		if err := l1.Acquire(ctx); err != nil {
			t.Fatalf("lone lease acquire %d: %v", i, err)
		}
	}
	if got := l1.Held(); got != 4 {
		t.Fatalf("lone lease holds %d, want the whole pool", got)
	}

	// A second lease shrinks the share to 2. l1 is over cap: its next
	// acquire must block even after it drains down to its own share,
	// while l2 climbs to its share as l1's surplus returns.
	l2 := b.Lease()
	acquired := make(chan error, 1)
	go func() { acquired <- l2.Acquire(ctx) }()
	select {
	case err := <-acquired:
		t.Fatalf("l2 acquired from an exhausted pool: err=%v", err)
	case <-time.After(20 * time.Millisecond):
	}
	l1.Release()
	if err := <-acquired; err != nil {
		t.Fatalf("l2 acquire after l1 release: %v", err)
	}
	// Pool is full again (l1 holds 3, l2 holds 1): a further acquire
	// must time out rather than succeed.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := l2.Acquire(short); err != context.DeadlineExceeded {
		t.Fatalf("acquire on a full pool returned %v, want deadline exceeded", err)
	}
	// Draining l1 to its share lets l2 reach its own share of 2.
	l1.Release()
	if err := l2.Acquire(ctx); err != nil {
		t.Fatalf("l2 acquire up to its share: %v", err)
	}
	if got := l2.Held(); got != 2 {
		t.Fatalf("l2 holds %d, want its fair share of 2", got)
	}
	l1.Close()
	l2.Close()
}

// TestCPULeaseAcquireCancellation pins the cancellation path: a blocked
// Acquire returns the context error instead of waiting forever.
func TestCPULeaseAcquireCancellation(t *testing.T) {
	b := NewCPUBudget(1)
	l1 := b.Lease()
	if err := l1.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	l2 := b.Lease()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l2.Acquire(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("blocked acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled acquire never returned")
	}
	l1.Close()
	l2.Close()

	if got := b.InUse(); got != 0 {
		t.Errorf("tokens in use after closes: %d", got)
	}
}

// TestCPULeaseShareFloor: with more leases than tokens, every lease is
// still entitled to one token (share never rounds to zero), so a
// maximally contended pool serializes instead of deadlocking.
func TestCPULeaseShareFloor(t *testing.T) {
	b := NewCPUBudget(1)
	l1, l2, l3 := b.Lease(), b.Lease(), b.Lease()
	defer l1.Close()
	defer l2.Close()
	defer l3.Close()
	// Each lease in turn can acquire the lone token once the previous
	// holder releases it.
	for _, l := range []*CPULease{l1, l2, l3} {
		if err := l.Acquire(context.Background()); err != nil {
			t.Fatalf("floor acquire: %v", err)
		}
		l.Release()
	}
}
