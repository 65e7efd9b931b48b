package system

import (
	"runtime"
	"testing"

	"tdram/internal/dramcache"
	"tdram/internal/sim"
	"tdram/internal/workload"
)

// The steady-state allocation pins: a forked cell recycles its requests,
// transactions, queue storage and event slots, so once its pools have
// grown to the run's high-water marks, simulating more accesses
// allocates (almost) nothing. The two cells are the benchmark's: TDRAM
// × is.D (cell-writeback: misses, dirty victims, flush buffer and
// writebacks) and TDRAM × bfs.22 (cell-hit: the hit path), at shorter
// windows.

// allocWindow is the pinned fork's measured requests per core; the
// marginal check doubles it.
const allocWindow = 10000

// allocPins are one fork's allocations and bytes at allocWindow.
// Regenerate only with a CHANGES.md line saying why they moved; profile
// the sites with
//
//	go test -run TestForkSteadyStateAllocs -memprofile mem.prof -memprofilerate=1 ./internal/system
var allocPins = []struct {
	workload      string
	allocs, bytes uint64
}{
	{"is.D", 1288, 7286680},
	{"bfs.22", 787, 7037352},
}

// allocBand and byteBand are the benchmark's bounds for allocs_per_op
// and alloc_bytes_per_op.
const allocBand, byteBand = 0.08, 0.05

func TestForkSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full-size forks; skipped under -short")
	}
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	for _, pin := range allocPins {
		spec, err := workload.ByName(pin.workload)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(dramcache.TDRAM, spec, 16<<20)
		cfg.WarmupPerCore = 1000
		cfg.Watchdog = 10 * sim.Millisecond
		img, err := BuildWarmupImage(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fork := func(reqs int) func() {
			c := cfg
			c.RequestsPerCore = reqs
			return func() {
				sys, err := NewWithImage(c, img)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(); err != nil {
					t.Fatal(err)
				}
			}
		}
		allocs := testing.AllocsPerRun(1, fork(allocWindow))
		doubled := testing.AllocsPerRun(1, fork(2*allocWindow))
		added := float64(cfg.Cores * allocWindow)
		if perK := (doubled - allocs) / added * 1000; perK >= 1 {
			t.Errorf("%s: doubling the window added %.0f allocations, %.2f per 1,000 added accesses (want < 1): the simulate loop allocates per demand",
				pin.workload, doubled-allocs, perK)
		}
		bytes := forkBytes(fork(allocWindow))
		t.Logf("%s: one fork at %d requests per core: %.0f allocations, %d bytes", pin.workload, allocWindow, allocs, bytes)
		if !within(uint64(allocs), pin.allocs, allocBand) {
			t.Errorf("%s: a fork allocates %.0f objects, pinned %d (band %.0f %%)", pin.workload, allocs, pin.allocs, allocBand*100)
		}
		if !within(bytes, pin.bytes, byteBand) {
			t.Errorf("%s: a fork allocates %d bytes, pinned %d (band %.0f %%)", pin.workload, bytes, pin.bytes, byteBand*100)
		}
	}
}

// forkBytes reports the bytes one run of f allocates, measured the way
// testing.AllocsPerRun measures objects.
func forkBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// within reports whether got lies within band (a fraction) of want.
func within(got, want uint64, band float64) bool {
	d := float64(got) - float64(want)
	return d <= band*float64(want) && -d <= band*float64(want)
}
