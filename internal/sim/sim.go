// Package sim provides the discrete-event simulation kernel used by every
// timing model in this repository: a picosecond tick clock and an event
// queue with deterministic ordering.
package sim

import (
	"fmt"
	"math"
	"strconv"
)

// Tick is a point in simulated time, measured in picoseconds. Picosecond
// resolution lets the fractional-nanosecond timing parameters from the
// paper's Table III (e.g. tHM_int = 2.5 ns, tRCD_TAG = 7.5 ns) be
// represented exactly as integers.
type Tick int64

// Common durations expressed in ticks.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000
	Microsecond Tick = 1000 * Nanosecond
	Millisecond Tick = 1000 * Microsecond
)

// NS converts a floating-point nanosecond quantity to ticks, rounding to
// the nearest picosecond.
func NS(ns float64) Tick {
	if ns < 0 {
		panic(fmt.Sprintf("sim: negative duration %gns", ns))
	}
	return Tick(ns*float64(Nanosecond) + 0.5)
}

// Nanoseconds reports t as a float64 nanosecond count.
func (t Tick) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 microsecond count — the time unit
// of the Chrome/Perfetto trace-event format.
func (t Tick) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String renders t as a nanosecond count with three decimals ("2.500ns").
// It sits on the obs/trace hot path, so it formats with integer
// arithmetic and strconv.AppendInt rather than fmt.Sprintf("%.3f") —
// no reflection, no float rounding, exact for the full Tick range.
func (t Tick) String() string {
	var buf [24]byte
	b := buf[:0]
	ps := int64(t)
	neg := ps < 0
	if neg {
		b = append(b, '-')
		ps = -ps
	}
	b = strconv.AppendInt(b, ps/1000, 10)
	frac := ps % 1000
	b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	b = append(b, 'n', 's')
	return string(b)
}

// ParseTick parses a duration string with a unit suffix — "500ps",
// "2.5ns", "1us", "3ms" — into ticks. It exists so CLI flags can accept
// human-friendly intervals without importing time (whose Duration cannot
// represent sub-nanosecond model steps).
func ParseTick(s string) (Tick, error) {
	units := []struct {
		suffix string
		mult   Tick
	}{
		{"ps", Picosecond}, {"ns", Nanosecond}, {"us", Microsecond}, {"ms", Millisecond},
	}
	for _, u := range units {
		n := len(s) - len(u.suffix)
		if n <= 0 || s[n:] != u.suffix {
			continue
		}
		// strconv.ParseFloat consumes the whole numeric prefix, so junk
		// like "1.2.3ns" or "5x7us" is rejected instead of silently
		// prefix-matching the way fmt.Sscanf("%g") would.
		v, err := strconv.ParseFloat(s[:n], 64)
		if err != nil {
			return 0, fmt.Errorf("sim: bad duration %q: %v", s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("sim: non-finite duration %q", s)
		}
		if v < 0 {
			return 0, fmt.Errorf("sim: negative duration %q", s)
		}
		return Tick(v*float64(u.mult) + 0.5), nil
	}
	return 0, fmt.Errorf("sim: duration %q needs a ps/ns/us/ms suffix", s)
}

// event is a scheduled callback, stored inline in the wheel's slab: the
// caller's prebound function and its argument, so scheduling allocates
// nothing when the argument is pointer-shaped. Insertion order within a
// tick IS the deterministic tie-break order, so no per-event sequence
// number is stored.
type event struct {
	when   Tick
	fn     func(any, Tick)
	arg    any
	next   int32 // slab slot of the next event in its bucket or the freelist
	daemon bool  // does not keep the simulation alive on its own
}

// Simulator owns the clock and the event queue. The zero value is ready to
// use. Simulator is not safe for concurrent use; all models run on the
// simulation goroutine, in event order.
type Simulator struct {
	now       Tick
	w         wheel
	fired     uint64
	nonDaemon int // queued events that keep the simulation alive

	// watchdog, when armed via NewWatchdog, aborts Run/RunUntil on
	// detected livelock; nil costs one branch per Step.
	watchdog *Watchdog
}

// New returns a Simulator with time zero and an empty queue.
func New() *Simulator { return &Simulator{} }

// Now reports the current simulated time.
func (s *Simulator) Now() Tick { return s.now }

// Fired reports the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending reports the number of events still queued.
func (s *Simulator) Pending() int { return s.w.count }

// ScheduleArg runs fn(arg, when) after delay ticks. A zero delay runs
// it after all previously scheduled events at the current tick. Negative
// delays panic: models that compute a start time in the past have a
// timing bug. It allocates nothing when arg is pointer-shaped: the
// controllers' per-request hot paths pass their transaction as arg and
// a package-level function as fn.
func (s *Simulator) ScheduleArg(delay Tick, fn func(any, Tick), arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: schedule %v in the past at %v", delay, s.now))
	}
	s.nonDaemon++
	s.place(event{when: s.now + delay, fn: fn, arg: arg})
}

// ScheduleArgAt runs fn(arg, when) at absolute time when (>= Now), with
// the same allocation discipline as ScheduleArg.
func (s *Simulator) ScheduleArgAt(when Tick, fn func(any, Tick), arg any) {
	if when < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", when, s.now))
	}
	s.nonDaemon++
	s.place(event{when: when, fn: fn, arg: arg})
}

// ScheduleDaemonArg runs fn(arg, when) after delay like ScheduleArg, but
// the event does not keep the simulation alive: Run and RunUntil stop
// once only daemon events remain. Perpetual self-rescheduling activities
// (refresh, watchdog checks, samplers) use it so a simulation drains
// when real work finishes.
func (s *Simulator) ScheduleDaemonArg(delay Tick, fn func(any, Tick), arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: schedule %v in the past at %v", delay, s.now))
	}
	s.place(event{when: s.now + delay, fn: fn, arg: arg, daemon: true})
}

// Step executes the next event, advancing the clock to its timestamp. It
// reports false when the queue is empty.
func (s *Simulator) Step() bool {
	i, ok := s.nextL0()
	if !ok {
		return false
	}
	w := &s.w
	b := &w.l0[i]
	n := b.head
	e := w.slab[n]
	if b.head = e.next; b.head == 0 {
		// Bucket drained: drop its occupancy bit.
		b.tail = 0
		w.l0bits[i>>6] &^= 1 << uint(i&63)
	}
	// Free the slot, clearing its references for the GC.
	w.slab[n] = event{next: w.free}
	w.free = n
	w.count--
	if !e.daemon {
		s.nonDaemon--
	}
	s.now = s.w.l0base + Tick(i)
	s.fired++
	e.fn(e.arg, e.when)
	if s.watchdog != nil {
		s.watchdog.onStep()
	}
	return true
}

// Run executes events until the queue drains or until an event would fire
// after limit; it returns the time of the last executed event. A limit of
// zero means no limit. A tripped watchdog stops the run immediately.
func (s *Simulator) Run(limit Tick) Tick {
	for {
		if s.watchdog != nil && s.watchdog.tripped {
			return s.now
		}
		when, ok := s.peekNext()
		if !ok || (limit == 0 && s.nonDaemon == 0) {
			return s.now
		}
		if limit > 0 && when > limit {
			// Advance (never rewind) the clock to the limit.
			if limit > s.now {
				s.now = limit
			}
			return s.now
		}
		s.Step()
	}
}

// RunUntil executes events while cond() remains false, returning true if
// cond became true and false if the event queue drained first (or a
// tripped watchdog aborted the run).
func (s *Simulator) RunUntil(cond func() bool) bool {
	for !cond() {
		if s.watchdog != nil && s.watchdog.tripped {
			return false
		}
		if s.nonDaemon == 0 || !s.Step() {
			return false
		}
	}
	return true
}
