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
// allocates (almost) nothing. Every design runs is.D (misses, dirty
// victims and writebacks); TDRAM also runs bfs.22 (the hit path). The
// two TDRAM cells are the benchmark's, cell-writeback and cell-hit, at
// shorter windows, and one fork of each is pinned outright.

// allocWindow is the measured requests per core; the marginal check
// doubles it.
const allocWindow = 10000

// allocPins are one TDRAM fork's allocations and bytes at allocWindow.
// Regenerate only with a CHANGES.md line saying why they moved; profile
// the sites with
//
//	go test -run TestForkSteadyStateAllocs -memprofile mem.prof -memprofilerate=1 ./internal/system
var allocPins = map[string]struct{ allocs, bytes uint64 }{
	"is.D":   {1228, 2953272},
	"bfs.22": {723, 2703864},
}

// allocBand and byteBand are the benchmark's bounds for allocs_per_op
// and alloc_bytes_per_op.
const allocBand, byteBand = 0.08, 0.05

func TestForkSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixteen full-size forks; skipped under -short")
	}
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	type cell struct {
		design   dramcache.Design
		workload string
	}
	var cells []cell
	for _, d := range append(dramcache.Designs(), dramcache.NoCache) {
		cells = append(cells, cell{d, "is.D"})
	}
	cells = append(cells, cell{dramcache.TDRAM, "bfs.22"})

	images := make(map[string]*WarmupImage)
	for _, c := range cells {
		spec, err := workload.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(c.design, spec, 16<<20)
		cfg.WarmupPerCore = 1000
		cfg.Watchdog = 10 * sim.Millisecond
		img := images[c.workload]
		if img == nil {
			// The image holds no design state: every design forks it.
			if img, err = BuildWarmupImage(cfg); err != nil {
				t.Fatal(err)
			}
			images[c.workload] = img
		}
		fork := func(reqs int) func() {
			cfg := cfg
			cfg.RequestsPerCore = reqs
			return func() {
				sys, err := NewWithImage(cfg, img)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A short unmeasured fork first takes the design's once-per-process
		// costs, such as the tag-ECC self-check behind its sync.Once.
		fork(allocWindow / 10)()
		allocs, bytes := forkCost(fork(allocWindow))
		doubled, _ := forkCost(fork(2 * allocWindow))
		name := c.design.String() + " × " + c.workload
		added := float64(cfg.Cores * allocWindow)
		perK := (float64(doubled) - float64(allocs)) / added * 1000
		t.Logf("%s: one fork at %d requests per core: %d allocations, %d bytes; doubling adds %.2f per 1,000 accesses",
			name, allocWindow, allocs, bytes, perK)
		if perK >= 1 {
			t.Errorf("%s: doubling the window added %d allocations, %.2f per 1,000 added accesses (want < 1): the simulate loop allocates per demand",
				name, doubled-allocs, perK)
		}
		pin, ok := allocPins[c.workload]
		if !ok || c.design != dramcache.TDRAM {
			continue
		}
		if !within(allocs, pin.allocs, allocBand) {
			t.Errorf("%s: a fork allocates %d objects, pinned %d (band %.0f %%)", name, allocs, pin.allocs, allocBand*100)
		}
		if !within(bytes, pin.bytes, byteBand) {
			t.Errorf("%s: a fork allocates %d bytes, pinned %d (band %.0f %%)", name, bytes, pin.bytes, byteBand*100)
		}
	}
}

// forkCost reports the objects and bytes one run of f allocates, read
// from runtime.MemStats the way testing.AllocsPerRun reads objects.
func forkCost(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// within reports whether got lies within band (a fraction) of want.
func within(got, want uint64, band float64) bool {
	d := float64(got) - float64(want)
	return d <= band*float64(want) && -d <= band*float64(want)
}
