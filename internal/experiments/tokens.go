package experiments

import (
	"context"
	"runtime"
)

// CPUBudget is a shared pool of CPU tokens that arbitrates matrix
// parallelism across concurrently running sweeps. One token is the
// right to simulate one matrix cell right now; the pool holds ~one
// token per host CPU, so however many sweeps are in flight, the number
// of cells simulating concurrently never oversubscribes the machine.
//
// The pool is a buffered channel: acquiring a token sends into it and
// releasing one receives. A lone sweep therefore gets the whole budget,
// and the split between sweeps rests on the runtime's FIFO hand-off of
// a freed slot to the sender that has waited longest: a sweep that
// joins a full pool queues behind the workers already waiting and gets
// a token at one of the next cell boundaries, never by a mid-cell
// preemption. The hard invariants do not depend on that order: tokens
// in use never exceed the total (TestTokenBudgetConservation), and
// gating only reorders wall-clock scheduling, never results.
//
// CPUBudget is safe for concurrent use.
type CPUBudget struct {
	tokens chan struct{}
}

// NewCPUBudget builds a pool of total tokens; total <= 0 selects
// runtime.GOMAXPROCS(0).
func NewCPUBudget(total int) *CPUBudget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return &CPUBudget{tokens: make(chan struct{}, total)}
}

// Total reports the pool size.
func (b *CPUBudget) Total() int { return cap(b.tokens) }

// InUse reports how many tokens are currently held (a gauge; the value
// is immediately stale but never exceeds Total).
func (b *CPUBudget) InUse() int { return len(b.tokens) }

// acquire blocks until a token is free or ctx is done. An already done
// ctx fails without taking a free token.
func (b *CPUBudget) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case b.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns one token to the pool.
func (b *CPUBudget) release() { <-b.tokens }
