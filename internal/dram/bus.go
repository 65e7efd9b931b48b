package dram

import (
	"fmt"

	"tdram/internal/sim"
)

// Dir is a bus transfer direction.
type Dir uint8

const (
	DirRead  Dir = iota // device -> controller
	DirWrite            // controller -> device
)

func (d Dir) String() string {
	if d == DirWrite {
		return "wr"
	}
	return "rd"
}

// busInterval is one reservation on a bus.
type busInterval struct {
	start, end sim.Tick
	dir        Dir
}

// Bus models one serial bus of a channel: the command/address (CA) bus,
// the bidirectional data (DQ) bus or TDRAM's one-way Hit-Miss (HM) bus.
// Reservations may be made out of arrival order — a write's DQ interval
// starts at a different fixed offset from its command than a read's — so
// a single next-free cursor is not enough; Bus keeps the set of busy
// intervals and answers first-fit queries.
//
// A turnaround margin separates transfers of opposite direction. On the
// DQ bus these bubbles are exactly the cost the paper's flush buffer
// avoids on write-miss-dirty; the CA and HM buses carry one direction
// and have zero margins.
//
// Intervals are half-open: [start, start+dur).
type Bus struct {
	rtw, wtr sim.Tick      // read->write and write->read margins
	busy     []busInterval // sorted by start, non-overlapping
	prune    sim.Tick
}

// gapBefore returns the margin needed after an interval of direction
// prev before one of direction next may start.
func (b *Bus) gapBefore(prev, next Dir) sim.Tick {
	if prev == next {
		return 0
	}
	if prev == DirRead {
		return b.rtw
	}
	return b.wtr
}

// FirstFree returns the earliest start >= earliest at which a transfer of
// the given length and direction fits, honoring turnaround margins
// against both neighbours.
func (b *Bus) FirstFree(earliest, dur sim.Tick, dir Dir) sim.Tick {
	if dur <= 0 {
		return earliest
	}
	// Tail fast path: command streams mostly move forward, so most queries
	// start after every tracked transfer — only the turnaround margin
	// against the last one can still constrain them.
	if n := len(b.busy); n == 0 {
		return earliest
	} else if last := &b.busy[n-1]; earliest >= last.end+b.gapBefore(last.dir, dir) {
		return earliest
	}
	start := earliest
	for i := 0; i <= len(b.busy); i++ {
		// Margin required after the previous interval.
		if i > 0 {
			prev := b.busy[i-1]
			if min := prev.end + b.gapBefore(prev.dir, dir); start < min {
				start = min
			}
		}
		if i == len(b.busy) {
			return start
		}
		next := b.busy[i]
		// Fits before next (with margin toward next)?
		if start+dur+b.gapBefore(dir, next.dir) <= next.start {
			return start
		}
		// Otherwise continue past next.
		if start < next.end {
			start = next.end
		}
	}
	return start
}

// FreeAt reports whether a dir-transfer may occupy [start, start+dur).
func (b *Bus) FreeAt(start, dur sim.Tick, dir Dir) bool {
	return b.FirstFree(start, dur, dir) == start
}

// Reserve commits the transfer. It panics if the transfer conflicts with
// an existing reservation: callers must query FirstFree/FreeAt first, and
// a violation means a protocol model double-booked a bus.
func (b *Bus) Reserve(start, dur sim.Tick, dir Dir) {
	if dur <= 0 {
		return
	}
	if !b.FreeAt(start, dur, dir) {
		panic(fmt.Sprintf("dram: bus: conflicting %v reservation at %v+%v", dir, start, dur))
	}
	end := start + dur
	n := len(b.busy)
	// Tail fast path: an append-at-end reservation (the common case once
	// FirstFree picked the slot) extends or follows the last interval
	// without the ordered-insert scan.
	if n == 0 || start >= b.busy[n-1].end {
		if n > 0 && b.busy[n-1].dir == dir && b.busy[n-1].end == start {
			b.busy[n-1].end = end
			return
		}
		b.busy = append(b.busy, busInterval{start, end, dir})
		return
	}
	i := 0
	for i < n && b.busy[i].start < start {
		i++
	}
	// Merge with same-direction abutting neighbours so a saturated
	// stream keeps the busy list short.
	if i > 0 && b.busy[i-1].dir == dir && b.busy[i-1].end == start {
		b.busy[i-1].end = end
		if i < n && b.busy[i].dir == dir && b.busy[i].start == end {
			b.busy[i-1].end = b.busy[i].end
			b.busy = append(b.busy[:i], b.busy[i+1:]...)
		}
		return
	}
	if i < n && b.busy[i].dir == dir && b.busy[i].start == end {
		b.busy[i].start = start
		return
	}
	b.busy = append(b.busy, busInterval{})
	copy(b.busy[i+1:], b.busy[i:])
	b.busy[i] = busInterval{start, end, dir}
}

// Release drops bookkeeping for transfers ending at or before now, but
// always keeps the most recent of them so turnaround margins against the
// past remain enforced. Channels call it on every commit so the busy
// list stays short.
func (b *Bus) Release(now sim.Tick) {
	if now <= b.prune {
		return
	}
	b.prune = now
	i := 0
	for i < len(b.busy)-1 && b.busy[i+1].end <= now {
		i++
	}
	if i > 0 {
		// Compact in place to keep the slice anchored at the array's
		// start; re-slicing forward would leak append capacity and force
		// a reallocation on nearly every future Reserve.
		n := copy(b.busy, b.busy[i:])
		b.busy = b.busy[:n]
	}
}

// Intervals reports tracked reservations (tests).
func (b *Bus) Intervals() int { return len(b.busy) }
