package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps the seed kernel's container/heap event queue alive as a
// test-only reference implementation and checks, over seeded random
// schedule/fire programs, that the timing wheel fires events in exactly
// the same deterministic (when, seq) order. The reference stores an
// explicit sequence number; the wheel encodes the same order structurally
// (per-tick buckets appended in scheduling order, stable cascades, and
// upper-bound insertion in the overflow tier).

type refEvent struct {
	when   Tick
	seq    uint64
	daemon bool
	fn     func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// refSim is the seed kernel: a (when, seq) binary heap.
type refSim struct {
	tnow   Tick
	seq    uint64
	events refHeap
}

func (r *refSim) schedule(delay Tick, fn func(), daemon, absolute bool) {
	r.seq++
	heap.Push(&r.events, refEvent{when: r.tnow + delay, seq: r.seq, daemon: daemon, fn: fn})
}

func (r *refSim) step() bool {
	if len(r.events) == 0 {
		return false
	}
	e := heap.Pop(&r.events).(refEvent)
	r.tnow = e.when
	e.fn()
	return true
}

func (r *refSim) now() Tick { return r.tnow }

// eqKernel abstracts the two kernels for the equivalence driver.
type eqKernel interface {
	schedule(delay Tick, fn func(), daemon, absolute bool)
	step() bool
	now() Tick
}

// wheelKernel adapts *Simulator, spreading the program across the three
// schedule calls (relative, absolute and daemon) so their interleavings
// are covered too. Every call must land in the same total order.
type wheelKernel struct{ s *Simulator }

func (w wheelKernel) schedule(delay Tick, fn func(), daemon, absolute bool) {
	switch {
	case daemon:
		w.s.ScheduleDaemonArg(delay, runFunc, fn)
	case absolute:
		w.s.ScheduleArgAt(w.s.Now()+delay, runFunc, fn)
	default:
		w.s.ScheduleArg(delay, runFunc, fn)
	}
}

func (w wheelKernel) step() bool { return w.s.Step() }
func (w wheelKernel) now() Tick  { return w.s.Now() }

// runKernelProgram executes one seeded random program against k and
// returns the firing trace. Delays mix same-tick ties, near-future
// level-0 targets, level-1 cascade targets, and overflow-tier targets;
// fired events recursively schedule children, so insertion happens both
// from outside and from inside the dispatch loop. The rng is consumed in
// schedule order and firing order, so any ordering divergence between two
// kernels also desynchronizes the traces and is caught by comparison.
func runKernelProgram(k eqKernel, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	nextID := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		var delay Tick
		switch rng.Intn(6) {
		case 0:
			delay = 0
		case 1:
			delay = Tick(rng.Intn(4)) // same-tick bursts and near ties
		case 2:
			delay = Tick(rng.Intn(256))
		case 3:
			delay = Tick(rng.Intn(2 * l0Size)) // spans the level-0/level-1 boundary
		case 4:
			delay = Tick(rng.Int63n(int64(l1Span))) // cascade territory
		case 5:
			delay = l1Span + Tick(rng.Int63n(int64(3*l1Span))) // overflow tier
		}
		daemon := rng.Intn(8) == 0
		absolute := rng.Intn(2) == 0
		k.schedule(delay, func() {
			trace = append(trace, fmt.Sprintf("%d@%d", id, k.now()))
			if depth < 3 {
				for n := rng.Intn(3); n > 0; n-- {
					schedule(depth + 1)
				}
			}
		}, daemon, absolute)
	}
	for i := 0; i < 48; i++ {
		schedule(0)
	}
	for k.step() {
	}
	return trace
}

func TestWheelMatchesHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := New()
		got := runKernelProgram(wheelKernel{s}, seed)
		want := runKernelProgram(&refSim{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel fired %d events, heap fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d diverges: wheel %s, heap %s", seed, i, got[i], want[i])
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events left pending", seed, s.Pending())
		}
		if s.Fired() != uint64(len(got)) {
			t.Fatalf("seed %d: Fired = %d, trace length %d", seed, s.Fired(), len(got))
		}
	}
}

// TestOverflowDrainsIntoWheel checks the overflow tier's containment: far
// events park there, migrate back into the wheel as the window advances,
// and all fire.
func TestOverflowDrainsIntoWheel(t *testing.T) {
	s := New()
	const n = 64
	fired := 0
	for i := 0; i < n; i++ {
		s.ScheduleArg(l1Span+Tick(i)*l1Span/8, runFunc, func() { fired++ })
	}
	if s.OverflowPending() == 0 {
		t.Fatal("far-future events did not land in the overflow tier")
	}
	s.Run(0)
	if fired != n {
		t.Fatalf("fired %d of %d overflow events", fired, n)
	}
	if s.OverflowPending() != 0 {
		t.Fatalf("overflow tier still holds %d events after drain", s.OverflowPending())
	}
}

// TestOverflowDaemonBounded is the no-unbounded-growth guarantee: a
// perpetual far-future self-rescheduling daemon (the refresh/sampler
// pattern) keeps at most its own single event in the overflow tier, no
// matter how long the simulation runs.
func TestOverflowDaemonBounded(t *testing.T) {
	s := New()
	const rounds = 50
	ticks := 0
	var rearm func()
	rearm = func() {
		ticks++
		if ticks < rounds {
			s.ScheduleDaemonArg(3*l1Span, runFunc, rearm)
		}
	}
	s.ScheduleDaemonArg(3*l1Span, runFunc, rearm)
	peak := 0
	for s.Step() {
		if p := s.OverflowPending(); p > peak {
			peak = p
		}
	}
	if ticks != rounds {
		t.Fatalf("daemon fired %d times, want %d", ticks, rounds)
	}
	if peak > 1 {
		t.Fatalf("overflow tier grew to %d events; the drain must bound it at 1", peak)
	}
}
