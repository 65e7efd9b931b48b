package dram

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tdram/internal/sim"
)

// Zero-margin buses: the CA and HM buses' first-fit interval search.

func TestBusBasic(t *testing.T) {
	b := &Bus{}
	if got := b.FirstFree(100, 10, DirRead); got != 100 {
		t.Errorf("FirstFree on empty = %v", got)
	}
	b.Reserve(100, 10, DirRead)
	if b.FreeAt(105, 2, DirRead) {
		t.Error("overlap reported free")
	}
	if !b.FreeAt(110, 5, DirRead) {
		t.Error("adjacent after reported busy")
	}
	if !b.FreeAt(90, 10, DirRead) {
		t.Error("adjacent before reported busy")
	}
	if got := b.FirstFree(100, 5, DirRead); got != 110 {
		t.Errorf("FirstFree during busy = %v, want 110", got)
	}
}

func TestBusGapFit(t *testing.T) {
	b := &Bus{}
	b.Reserve(0, 10, DirWrite)
	b.Reserve(30, 10, DirWrite)
	if got := b.FirstFree(0, 20, DirWrite); got != 10 {
		t.Errorf("gap fit = %v, want 10", got)
	}
	if got := b.FirstFree(0, 21, DirWrite); got != 40 {
		t.Errorf("too-large gap = %v, want 40", got)
	}
}

func TestBusOutOfOrderReserve(t *testing.T) {
	b := &Bus{}
	b.Reserve(100, 10, DirRead)
	b.Reserve(50, 10, DirRead) // earlier than existing: the write-offset case
	if got := b.FirstFree(0, 100, DirRead); got != 110 {
		t.Errorf("FirstFree(0,100) = %v, want 110", got)
	}
	if got := b.FirstFree(60, 40, DirRead); got != 60 {
		t.Errorf("FirstFree in gap = %v, want 60", got)
	}
}

func TestBusOverlapPanics(t *testing.T) {
	b := &Bus{}
	b.Reserve(0, 10, DirRead)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping Reserve did not panic")
		}
	}()
	b.Reserve(5, 10, DirRead)
}

func TestBusRelease(t *testing.T) {
	b := &Bus{}
	for i := 0; i < 100; i++ {
		b.Reserve(sim.Tick(i*20), 10, DirRead)
	}
	b.Release(1000)
	if b.Intervals() >= 100 {
		t.Errorf("Release did not prune: %d intervals", b.Intervals())
	}
	// Reservations after the prune point are preserved.
	if b.FreeAt(1980, 10, DirRead) {
		t.Error("reservation after prune point lost")
	}
}

func TestBusMerge(t *testing.T) {
	b := &Bus{}
	b.Reserve(0, 10, DirRead)
	b.Reserve(10, 10, DirRead)
	b.Reserve(20, 10, DirRead)
	if b.Intervals() != 1 {
		t.Errorf("abutting intervals not merged: %d", b.Intervals())
	}
	if got := b.FirstFree(0, 1, DirRead); got != 30 {
		t.Errorf("FirstFree(0,1) = %v, want 30", got)
	}
}

// TestBusBridgeMerge fills the gap between two intervals in one Reserve,
// which must merge backward and forward in the same call.
func TestBusBridgeMerge(t *testing.T) {
	b := &Bus{}
	b.Reserve(0, 10, DirRead)
	b.Reserve(20, 10, DirRead)
	b.Reserve(10, 10, DirRead) // bridges both neighbours
	if b.Intervals() != 1 {
		t.Errorf("bridge reserve left %d intervals, want 1", b.Intervals())
	}
	if got := b.FirstFree(0, 1, DirRead); got != 30 {
		t.Errorf("FirstFree(0,1) = %v, want 30", got)
	}
}

// TestBusReleaseMidInterval prunes with a cutoff falling inside a
// reservation: the straddling interval must survive intact, and so does
// the latest one that already ended.
func TestBusReleaseMidInterval(t *testing.T) {
	b := &Bus{}
	b.Reserve(0, 10, DirRead)
	b.Reserve(20, 10, DirRead)
	b.Reserve(40, 10, DirRead)
	b.Release(25) // inside [20,30); [0,10) is the latest ended interval
	if b.Intervals() != 3 {
		t.Errorf("Release(25) left %d intervals, want 3", b.Intervals())
	}
	if b.FreeAt(20, 10, DirRead) || b.FreeAt(40, 10, DirRead) {
		t.Error("Release dropped a live reservation")
	}
	if !b.FreeAt(10, 10, DirRead) {
		t.Error("the gap after the kept interval is reported busy")
	}
	// Release is monotonic: a stale smaller cutoff is a no-op.
	b.Release(5)
	if b.Intervals() != 3 {
		t.Errorf("stale Release changed state: %d intervals", b.Intervals())
	}
	b.Release(35) // [20,30) is now the latest ended interval
	if b.Intervals() != 2 {
		t.Errorf("Release(35) left %d intervals, want 2", b.Intervals())
	}
}

// Property: a randomized sequence of first-fit reservations never
// overlaps, and FirstFree always returns a slot at or after the earliest
// requested time.
func TestBusNoOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &Bus{}
		type iv struct{ s, e sim.Tick }
		var placed []iv
		for i := 0; i < 100; i++ {
			earliest := sim.Tick(rng.Intn(500))
			dur := sim.Tick(1 + rng.Intn(20))
			at := b.FirstFree(earliest, dur, DirRead)
			if at < earliest {
				return false
			}
			b.Reserve(at, dur, DirRead)
			placed = append(placed, iv{at, at + dur})
		}
		sort.Slice(placed, func(i, j int) bool { return placed[i].s < placed[j].s })
		for i := 1; i < len(placed); i++ {
			if placed[i].s < placed[i-1].e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Turnaround margins: the DQ bus.

func TestDQBusSameDirection(t *testing.T) {
	b := &Bus{rtw: sim.NS(3), wtr: sim.NS(3)}
	b.Reserve(100, 20, DirRead)
	if got := b.FirstFree(100, 20, DirRead); got != 120 {
		t.Errorf("back-to-back same dir = %v, want 120", got)
	}
	b.Reserve(120, 20, DirRead)
	if b.Intervals() != 1 {
		t.Errorf("abutting same-direction transfers left %d intervals, want 1", b.Intervals())
	}
}

func TestDQBusTurnaround(t *testing.T) {
	b := &Bus{rtw: sim.NS(3), wtr: sim.NS(3)}
	b.Reserve(100, 20, DirRead)
	// A write after a read must leave the RTW margin.
	if got := b.FirstFree(100, 20, DirWrite); got != 120+sim.NS(3) {
		t.Errorf("write after read = %v, want 123ns-point", got)
	}
	b.Reserve(120+sim.NS(3), 20, DirWrite)
	// A read after that write needs WTR (querying from inside the write's
	// slot; the gap before the first read is legitimately free).
	want := 120 + sim.NS(3) + 20 + sim.NS(3)
	if got := b.FirstFree(120, 10, DirRead); got != want {
		t.Errorf("read after write = %v, want %v", got, want)
	}
	if got := b.FirstFree(0, 10, DirRead); got != 0 {
		t.Errorf("read in leading gap = %v, want 0", got)
	}
}

func TestDQBusGapWithMargins(t *testing.T) {
	b := &Bus{rtw: 10, wtr: 10}
	b.Reserve(0, 10, DirRead)
	b.Reserve(100, 10, DirRead)
	// A write between two reads needs margin on both sides: [20, 90].
	if got := b.FirstFree(0, 70, DirWrite); got != 20 {
		t.Errorf("write in gap = %v, want 20", got)
	}
	if got := b.FirstFree(0, 71, DirWrite); got <= 100 {
		t.Errorf("oversized write placed at %v inside gap", got)
	}
}

func TestDQBusConflictPanics(t *testing.T) {
	b := &Bus{rtw: 3, wtr: 3}
	b.Reserve(0, 10, DirRead)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting reserve did not panic")
		}
	}()
	b.Reserve(5, 10, DirRead)
}

func TestDQBusReleaseKeepsLast(t *testing.T) {
	b := &Bus{rtw: 10, wtr: 10}
	b.Reserve(0, 10, DirRead)
	b.Release(1000)
	// The last interval must survive so turnaround vs. the past holds.
	if got := b.FirstFree(0, 5, DirWrite); got != 20 {
		t.Errorf("write after released read = %v, want 20 (margin kept)", got)
	}
}

// Property: random direction-annotated first-fit reservations never
// violate turnaround margins.
func TestDQBusMarginProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &Bus{rtw: 5, wtr: 7}
		type iv struct {
			s, e sim.Tick
			d    Dir
		}
		var placed []iv
		for i := 0; i < 60; i++ {
			dir := Dir(rng.Intn(2))
			dur := sim.Tick(1 + rng.Intn(10))
			at := b.FirstFree(sim.Tick(rng.Intn(300)), dur, dir)
			b.Reserve(at, dur, dir)
			placed = append(placed, iv{at, at + dur, dir})
		}
		for i := range placed {
			for j := range placed {
				if i == j {
					continue
				}
				a, c := placed[i], placed[j]
				if a.s >= c.e || c.s >= a.e {
					// Disjoint: check margin when opposite direction and adjacent order a->c.
					if a.e <= c.s && a.d != c.d {
						margin := sim.Tick(5)
						if a.d == DirWrite {
							margin = 7
						}
						if c.s-a.e < margin && c.s-a.e >= 0 {
							// Must not be violated... unless another interval sits between.
							between := false
							for k := range placed {
								if k != i && k != j && placed[k].s >= a.e && placed[k].e <= c.s {
									between = true
								}
							}
							if !between {
								return false
							}
						}
					}
					continue
				}
				return false // overlap
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// BenchmarkBusReserve is the forward-moving command-stream pattern that
// the tail fast paths in FirstFree and Reserve serve: queries land at or
// after the last busy interval, so neither scans.
func BenchmarkBusReserve(b *testing.B) {
	bus := &Bus{}
	var now sim.Tick
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := bus.FirstFree(now, 4, DirWrite)
		bus.Reserve(at, 4, DirWrite)
		now = at
		if i%64 == 0 {
			bus.Release(now)
		}
	}
}

// BenchmarkBusOutOfOrder alternates between two offset streams so half
// the reservations take the ordered-insert slow path — the bound on what
// the write-offset case costs.
func BenchmarkBusOutOfOrder(b *testing.B) {
	bus := &Bus{}
	var now sim.Tick
	b.ReportAllocs()
	for i := 0; i < b.N; i += 2 {
		bus.Reserve(now+20, 4, DirRead) // far slot first
		bus.Reserve(now+8, 4, DirRead)  // then the earlier one: ordered insert
		now += 32
		if i%64 == 0 {
			bus.Release(now)
		}
	}
}
