package experiments

import (
	"strings"
	"testing"

	"tdram/internal/dramcache"
	"tdram/internal/workload"
)

// TestScaleFaultWiring: Scale's fault knobs reach the cell configs (but
// never the no-cache reference, which has no controller to inject into),
// and the stock scales arm the watchdog.
func TestScaleFaultWiring(t *testing.T) {
	sc := tinyScale(t)
	sc.FaultRate = 1e-3
	sc.FaultSeed = 42
	wl, err := workload.ByName("ft.C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config(dramcache.TDRAM, wl)
	if cfg.Cache.Fault.Rate != 1e-3 || cfg.Cache.Fault.Seed != 42 {
		t.Errorf("fault config not wired: %+v", cfg.Cache.Fault)
	}
	if nc := sc.Config(dramcache.NoCache, wl); nc.Cache.Fault.Enabled() {
		t.Error("no-cache cell got a fault injector")
	}
	if Quick().Watchdog <= 0 || Full().Watchdog <= 0 {
		t.Error("stock scales leave the watchdog unarmed")
	}
	if cfg.Watchdog != sc.Watchdog {
		t.Errorf("watchdog not wired: %v != %v", cfg.Watchdog, sc.Watchdog)
	}
}

// TestResilience runs the fault-injection sweep at the tiny scale and
// checks it reports injection activity. Under the race detector the
// sweep is trimmed to stay inside the package's test budget.
func TestResilience(t *testing.T) {
	sc := tinyScale(t)
	if raceEnabled || testing.Short() {
		sc.Workloads = sc.studySubset(2)
		sc.RequestsPerCore = 600
		sc.WarmupPerCore = 100
	}
	rep := runStudy(t, sc, "resilience")
	s := rep.String()
	if rep.ID != "resilience" || !strings.Contains(s, "injected") {
		t.Fatalf("report malformed:\n%s", s)
	}
	if len(rep.Summary) == 0 || !strings.Contains(rep.Summary[0], "worst-case slowdown") {
		t.Errorf("summary missing: %v", rep.Summary)
	}
	// The highest-rate rows must actually inject: every data row carries
	// the injected count in column 4; at rate 1e-2 it cannot be zero.
	csv := rep.CSV()
	if csv == "" {
		t.Fatal("no CSV")
	}
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
		cols := strings.Split(line, ",")
		if len(cols) < 4 {
			t.Fatalf("short CSV row: %q", line)
		}
		if cols[1] == "0.01" && cols[3] == "0" {
			t.Errorf("rate-0.01 row injected nothing: %q", line)
		}
	}
}
