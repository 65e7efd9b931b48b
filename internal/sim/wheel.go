package sim

import "math/bits"

// This file implements the kernel's event queue as a two-level timing
// wheel with a sorted overflow tier, replacing the original
// container/heap priority queue. The heap cost O(log n) comparisons plus
// an interface{} boxing allocation per Push/Pop; the wheel schedules and
// fires in O(1) amortized, so the steady-state schedule/fire path
// allocates nothing.
//
// Storage: every queued wheel event sits in one per-simulator slab, and
// each bucket is a FIFO list threaded through the slab by the events'
// next indices (appends at the tail, fires from the head). Fired slots
// go on the slab's freelist, so the slab grows only with the number of
// events pending at once — about 140 in a long full-system run — not
// with each of the 5,120 buckets' own peak occupancy.
//
// Geometry:
//
//	level 0:  l0Size one-tick buckets covering [l0base, l0base+l0Size)
//	          — about 4 ns at picosecond resolution. One bucket per tick
//	          means events in a bucket are already in (when, seq) order:
//	          appends happen in scheduling order and never need sorting.
//	level 1:  l1Size buckets of l0Size ticks each covering
//	          [l0base+l0Size, l0base+l1Span) — about 4.2 µs, enough for
//	          every DRAM timing parameter including tREFI. A bucket
//	          cascades wholesale into level 0 when the window reaches it;
//	          the cascade scan is stable, so per-tick FIFO order (and
//	          with it the deterministic (when, seq) firing order the
//	          models rely on) survives the move.
//	overflow: events at or beyond l0base+l1Span (watchdog windows,
//	          sampler intervals), kept sorted by when with same-when ties
//	          in scheduling order via upper-bound insertion. The prefix
//	          that fits drains back into the wheel on every window
//	          advance, so far-future self-rescheduling daemons cannot
//	          grow it without bound.
//
// Two invariants make the index arithmetic exact:
//
//   - l0base is always l0Size-aligned, so a level-0 index is
//     when-l0base and a level-1 index is (when>>l0Bits)&l1Mask.
//   - Now() never lags l0base when user code runs: the window only
//     advances inside Step, which immediately fires an event at or past
//     the new base. Scheduling therefore never sees a target before the
//     window (ScheduleArgAt already panics for when < Now()).
const (
	l0Bits  = 12
	l0Size  = 1 << l0Bits
	l0Mask  = l0Size - 1
	l0Words = l0Size / 64

	l1Bits  = 10
	l1Size  = 1 << l1Bits
	l1Mask  = l1Size - 1
	l1Words = l1Size / 64
)

// l1Span is the total horizon the two wheel levels cover past l0base.
const l1Span = Tick(l1Size) << l0Bits

// slabMin is the slab's first size: enough for a short run's pending
// events in one allocation.
const slabMin = 64

// bucket is a FIFO list of slab slots; 0 (the slab's sentinel slot)
// terminates it, so the zero bucket is empty.
type bucket struct{ head, tail int32 }

// wheel is the event store.
type wheel struct {
	slab []event // queued wheel events; slab[0] is the nil sentinel
	free int32   // freelist of slab slots, linked through next

	l0     [l0Size]bucket
	l0bits [l0Words]uint64
	l0hint int // lowest level-0 bitmap word that can be non-zero

	l1     [l1Size]bucket
	l1bits [l1Words]uint64

	overflow []event

	l0base Tick // start of the level-0 window, l0Size-aligned
	count  int  // total queued events
}

// store copies e into a free slab slot, doubling the slab when none is
// left, and returns the slot.
func (w *wheel) store(e event) int32 {
	if w.free == 0 {
		w.grow()
	}
	n := w.free
	w.free = w.slab[n].next
	e.next = 0
	w.slab[n] = e
	return n
}

// grow doubles the slab and threads the new slots onto the freelist.
// Buckets hold indices, so moving the slab invalidates nothing.
func (w *wheel) grow() {
	old := len(w.slab)
	slab := make([]event, max(slabMin, 2*old))
	copy(slab, w.slab)
	first := max(old, 1) // slot 0 stays the sentinel
	for i := first; i < len(slab)-1; i++ {
		slab[i].next = int32(i + 1)
	}
	w.slab, w.free = slab, int32(first)
}

// push appends slot n to bucket b.
func (w *wheel) push(b *bucket, n int32) {
	if b.head == 0 {
		b.head = n
	} else {
		w.slab[b.tail].next = n
	}
	b.tail = n
}

// place routes one event into the wheel level (or overflow tier) its
// timestamp belongs to and counts it.
func (s *Simulator) place(e event) {
	s.w.count++
	s.placeWheel(e)
}

// placeWheel routes without counting — shared by place and the overflow
// drain (which only moves already-counted events).
func (s *Simulator) placeWheel(e event) {
	w := &s.w
	switch {
	case e.when < w.l0base+l0Size:
		i := int(e.when - w.l0base)
		w.push(&w.l0[i], w.store(e))
		w.l0bits[i>>6] |= 1 << uint(i&63)
		if i>>6 < w.l0hint {
			w.l0hint = i >> 6
		}
	case e.when < w.l0base+l1Span:
		i := int(e.when>>l0Bits) & l1Mask
		w.push(&w.l1[i], w.store(e))
		w.l1bits[i>>6] |= 1 << uint(i&63)
	default:
		// Sorted upper-bound insert: same-when events stay in scheduling
		// order, preserving the (when, seq) total order through the tier.
		o := w.overflow
		lo, hi := 0, len(o)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if o[mid].when <= e.when {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		o = append(o, event{})
		copy(o[lo+1:], o[lo:])
		o[lo] = e
		w.overflow = o
	}
}

// scanL0 finds the lowest occupied level-0 bucket. The hint skips bitmap
// words already known empty; buckets behind the front never repopulate
// (events cannot be scheduled before Now()), so advancing it is safe.
func (s *Simulator) scanL0() (int, bool) {
	w := &s.w
	for i := w.l0hint; i < l0Words; i++ {
		if word := w.l0bits[i]; word != 0 {
			w.l0hint = i
			return i<<6 + bits.TrailingZeros64(word), true
		}
	}
	w.l0hint = l0Words
	return 0, false
}

// scanL1 finds the first occupied level-1 bucket in ring order starting
// just past the block the level-0 window occupies. Ring order equals
// time order across the level's validity window, so the first occupied
// bucket holds the earliest level-1 events.
func (s *Simulator) scanL1() (int, bool) {
	w := &s.w
	start := (int(s.w.l0base>>l0Bits) + 1) & l1Mask
	wd := start >> 6
	if word := w.l1bits[wd] >> uint(start&63); word != 0 {
		return start + bits.TrailingZeros64(word), true
	}
	// Remaining words, wrapping. The final iteration re-checks word wd:
	// its high bits were seen empty above, so only the wrapped-around low
	// bits can match.
	for k := 1; k <= l1Words; k++ {
		i := (wd + k) % l1Words
		if word := w.l1bits[i]; word != 0 {
			return i<<6 + bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// advance moves the level-0 window forward to the next pending events:
// either a cascade of the earliest occupied level-1 bucket, or (both
// levels empty) a jump straight to the first overflow event. Callers
// guarantee at least one event is queued and level 0 is empty.
func (s *Simulator) advance() {
	if i, ok := s.scanL1(); ok {
		s.cascade(i)
		return
	}
	s.w.l0base = s.w.overflow[0].when &^ Tick(l0Mask)
	s.w.l0hint = 0
	s.drainOverflow()
}

// cascade redistributes level-1 bucket i into level 0, advancing l0base
// to that bucket's block. The events stay in their slab slots and are
// relinked in list order, so same-tick events keep their scheduling
// order in the target bucket.
func (s *Simulator) cascade(i int) {
	w := &s.w
	cur := int(w.l0base>>l0Bits) & l1Mask
	d := (i - cur) & l1Mask
	w.l0base = ((w.l0base >> l0Bits) + Tick(d)) << l0Bits
	w.l0hint = 0
	for n := w.l1[i].head; n != 0; {
		e := &w.slab[n]
		next := e.next
		e.next = 0
		j := int(e.when & l0Mask)
		w.push(&w.l0[j], n)
		w.l0bits[j>>6] |= 1 << uint(j&63)
		n = next
	}
	w.l1[i] = bucket{}
	w.l1bits[i>>6] &^= 1 << uint(i&63)
	s.drainOverflow()
}

// drainOverflow migrates the sorted-prefix of overflow events that now
// fit under the advanced window back into the wheel, keeping the tier's
// invariant that its head is always at or past l0base+l1Span.
func (s *Simulator) drainOverflow() {
	o := s.w.overflow
	end := s.w.l0base + l1Span
	n := 0
	for n < len(o) && o[n].when < end {
		n++
	}
	if n == 0 {
		return
	}
	for _, e := range o[:n] {
		s.placeWheel(e)
	}
	rest := copy(o, o[n:])
	clear(o[rest:])
	s.w.overflow = o[:rest]
}

// nextL0 returns the level-0 index of the earliest pending event,
// advancing the window as needed. It reports false on an empty queue.
func (s *Simulator) nextL0() (int, bool) {
	if s.w.count == 0 {
		return 0, false
	}
	for {
		if i, ok := s.scanL0(); ok {
			return i, true
		}
		s.advance()
	}
}

// peekNext reports the earliest pending event's time without firing
// anything or advancing the window (Run's limit check must not move
// l0base past Now(), or a schedule issued after an early return could
// target a tick behind the window).
func (s *Simulator) peekNext() (Tick, bool) {
	if s.w.count == 0 {
		return 0, false
	}
	if i, ok := s.scanL0(); ok {
		return s.w.l0base + Tick(i), true
	}
	if i, ok := s.scanL1(); ok {
		slab := s.w.slab
		n := s.w.l1[i].head
		min := slab[n].when
		for n = slab[n].next; n != 0; n = slab[n].next {
			if slab[n].when < min {
				min = slab[n].when
			}
		}
		return min, true
	}
	return s.w.overflow[0].when, true
}

// OverflowPending reports the number of events parked in the overflow
// tier (tests: the tier must drain as the window advances).
func (s *Simulator) OverflowPending() int { return len(s.w.overflow) }
