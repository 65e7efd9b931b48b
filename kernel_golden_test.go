// Golden-stats pin for the simulation kernel: every design's full
// Result (outcome counts, latency means and histograms, traffic and
// energy breakdowns) must be bit-identical run over run AND match the
// committed fingerprints in testdata/kernel_golden.json. Each cell also
// pins the number of events its kernel fired: the count is
// deterministic, so a change that fires more (or fewer) events fails
// here even when it leaves every statistic alone.
//
// The fingerprints were generated with the original container/heap event
// queue; the timing-wheel kernel that replaced it must preserve the
// exact (when, seq) firing order, so any divergence here means the
// kernel reordered events. Intentional *model* changes that move timing
// are expected to shift these values — regenerate with:
//
//	go test -run TestKernelStatsGolden -update-golden .
package tdram_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"tdram"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_golden.json")

const goldenPath = "testdata/kernel_golden.json"

// goldenDesigns are all five cached designs plus the NoCache baseline,
// so both controller paths (cache protocol and straight-to-backing) are
// pinned.
var goldenDesigns = []tdram.Design{
	tdram.CascadeLake, tdram.Alloy, tdram.BEAR, tdram.NDC, tdram.TDRAM, tdram.NoCache,
}

// goldenFaultRate is high enough that a micro cell both injects faults
// and retries detected ones, so the retry paths are pinned too.
const goldenFaultRate = 1e-2

// goldenVariant is one extra pinned cell: a design run with a non-default
// option, so the capability branches the plain designs never take (the
// Ideal oracle, fault retries, the predictor, open-page, the probe
// ablations, associativity) are fingerprinted as well.
type goldenVariant struct {
	name   string
	design tdram.Design
	tweak  func(*tdram.SystemConfig)
	fault  bool // the cell must inject and retry faults
}

var goldenVariants = []goldenVariant{
	{"ideal", tdram.Ideal, nil, false},
	{"tdram+fault", tdram.TDRAM, func(c *tdram.SystemConfig) {
		c.Cache.Fault = tdram.FaultConfig{Rate: goldenFaultRate, Seed: 7}
	}, true},
	{"ndc+fault", tdram.NDC, func(c *tdram.SystemConfig) {
		c.Cache.Fault = tdram.FaultConfig{Rate: goldenFaultRate, Seed: 7}
	}, true},
	{"cascade-lake+predictor", tdram.CascadeLake, func(c *tdram.SystemConfig) { c.Cache.UsePredictor = true }, false},
	{"alloy+openpage", tdram.Alloy, func(c *tdram.SystemConfig) { c.Cache.OpenPage = true }, false},
	{"tdram-noprobe", tdram.TDRAM, func(c *tdram.SystemConfig) { c.Cache.ProbeEnabled = false }, false},
	{"tdram+probe-oldest", tdram.TDRAM, func(c *tdram.SystemConfig) { c.Cache.ProbeOldest = true }, false},
	{"tdram+8way", tdram.TDRAM, func(c *tdram.SystemConfig) { c.Cache.Ways = 8 }, false},
	// Store-heavy and footprint-heavy streams: the functional warmup sees
	// dirty L2 victims and cache evictions, so these pin the warm content
	// every cell starts from, for a tag store and for none.
	{"tdram@is.D", tdram.TDRAM, func(c *tdram.SystemConfig) { c.Workload = tdram.MustWorkload("is.D") }, false},
	{"no-cache@is.D", tdram.NoCache, func(c *tdram.SystemConfig) { c.Workload = tdram.MustWorkload("is.D") }, false},
	{"bear@pr.25", tdram.BEAR, func(c *tdram.SystemConfig) { c.Workload = tdram.MustWorkload("pr.25") }, false},
	{"tdram+8way@cc.25", tdram.TDRAM, func(c *tdram.SystemConfig) {
		c.Workload = tdram.MustWorkload("cc.25")
		c.Cache.Ways = 8
	}, false},
}

// goldenPin is one cell's entry in the golden file: the Result
// fingerprint and the number of events the kernel fired.
type goldenPin struct {
	Fingerprint string `json:"fingerprint"`
	Fired       uint64 `json:"fired"`
}

// goldenCell runs one micro-scale simulation and fingerprints the full
// Result via its reflected rendering (covers every exported and
// unexported stat field, histograms included).
func goldenCell(t testing.TB, d tdram.Design) goldenPin {
	t.Helper()
	pin, _ := goldenRun(t, d, nil)
	return pin
}

// goldenRun runs one micro-scale cell with an optional config tweak and
// returns its pin alongside the Result.
func goldenRun(t testing.TB, d tdram.Design, tweak func(*tdram.SystemConfig)) (goldenPin, *tdram.Result) {
	t.Helper()
	cfg := tdram.NewSystemConfig(d, tdram.MustWorkload("ft.C"), 8<<20)
	cfg.RequestsPerCore = 1500
	cfg.WarmupPerCore = 300
	if tweak != nil {
		tweak(&cfg)
	}
	sys, err := tdram.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return goldenPin{
		Fingerprint: fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))),
		Fired:       sys.Simulator().Fired(),
	}, res
}

// TestKernelStatsDeterminism runs every design twice on fresh kernels
// and requires bit-identical stats: the event queue must impose a total
// deterministic order, never a heap-shape- or map-order-dependent one.
func TestKernelStatsDeterminism(t *testing.T) {
	designs := goldenDesigns
	if testing.Short() {
		designs = []tdram.Design{tdram.TDRAM, tdram.CascadeLake}
	}
	for _, d := range designs {
		if a, b := goldenCell(t, d), goldenCell(t, d); a != b {
			t.Errorf("%v: stats differ between identical runs: %+v vs %+v", d, a, b)
		}
	}
}

// TestKernelStatsGolden compares each design's fingerprint and fired
// count against the committed golden file.
func TestKernelStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden cells cover all designs; skipped under -short")
	}
	got := make(map[string]goldenPin, len(goldenDesigns)+len(goldenVariants))
	for _, d := range goldenDesigns {
		got[d.String()] = goldenCell(t, d)
	}
	for _, v := range goldenVariants {
		pin, res := goldenRun(t, v.design, v.tweak)
		if f := res.Cache.Fault; v.fault && (f.Injected == 0 || f.Retries == 0) {
			t.Errorf("%s: fault cell injected %d and retried %d; both must be nonzero", v.name, f.Injected, f.Retries)
		}
		got[v.name] = pin
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	want := make(map[string]goldenPin)
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for d, pin := range got {
		if want[d].Fingerprint != pin.Fingerprint {
			t.Errorf("%s: stats fingerprint %s does not match golden %s — the kernel reordered events (or a model change moved timing; regenerate with -update-golden if intentional)", d, pin.Fingerprint, want[d].Fingerprint)
		}
		if want[d].Fired != pin.Fired {
			t.Errorf("%s: fired %d events, golden %d — a change added or removed events (regenerate with -update-golden, with a CHANGES.md line saying why, if intentional)", d, pin.Fired, want[d].Fired)
		}
	}
}
