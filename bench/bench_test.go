package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"tdram/internal/experiments"
	"tdram/internal/sim"
	"tdram/internal/workload"
)

// microParams shrinks every workload so one run takes well under a
// second. The matrix's oracle is a reference render of the same micro
// sweep, in place of full_results.txt.
func microParams(t *testing.T) params {
	t.Helper()
	p := defaultParams()
	p.cellCacheBytes = 1 << 20
	p.cellWarmup = 20
	p.hitReqs, p.writebackReqs = 300, 300
	var specs []workload.Spec
	for _, n := range []string{"bt.C", "is.D"} {
		s, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	p.matrix = experiments.Scale{Name: "micro", CacheBytes: 1 << 20, RequestsPerCore: 100,
		WarmupPerCore: 20, Workloads: specs, Watchdog: 10 * sim.Millisecond}
	mx, err := experiments.RunMatrixOpts(p.matrix, experiments.MatrixOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ref strings.Builder
	for _, r := range experiments.AllFromMatrix(mx) {
		ref.WriteString(r.String())
	}
	p.oracle = func() ([]byte, error) { return []byte(ref.String()), nil }
	p.serveReq.RequestsPerCore, p.serveReq.WarmupPerCore = 20, 5
	p.missEvery = 3
	return p
}

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryDeclaredMetricIsEmitted runs every workload at micro size,
// untraced and traced, and checks the metrics against BENCHMARK.json:
// every declared metric, and no other, with its unit; legal names; and
// end-to-end values that are never zero.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, tdperf measures %d", bf.RunSeconds, defaultSeconds)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(declared, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, tdperf runs %v", declared, workloadNames())
	}
	want := map[bool][]def{}
	for _, m := range bf.EndToEnd {
		want[false] = append(want[false], def{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		want[true] = append(want[true], def{m.Name, m.Unit, m.Better})
	}
	for trace, defs := range map[bool][]def{false: endToEnd, true: perLayer} {
		if len(defs) != len(want[trace]) {
			t.Errorf("trace=%v: tdperf declares %d metrics, BENCHMARK.json %d", trace, len(defs), len(want[trace]))
			continue
		}
		for i, d := range defs {
			if d != want[trace][i] {
				t.Errorf("trace=%v: metric %d is %+v in tdperf, %+v in BENCHMARK.json", trace, i, d, want[trace][i])
			}
			if !legalName.MatchString(d.name) {
				t.Errorf("illegal metric name %q", d.name)
			}
		}
	}

	t.Setenv("TDPERF_DIR", t.TempDir())
	p := microParams(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(p, name, 1, 300*time.Millisecond, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want[trace]))
			}
			for _, d := range want[trace] {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s unit %q, want %q", name, d.name, m.Unit, d.unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestMutatedFigureRowFails changes one number in one expected figure
// row and expects the matrix run to count failures. The row is bt.C's,
// the first the seed-1 rotation sweeps, so it finishes even on a slow
// (race-instrumented) build.
func TestMutatedFigureRowFails(t *testing.T) {
	p := microParams(t)
	ref, err := p.oracle()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(ref), "\n")
	mutated := false
	inFig11 := false
	for i, l := range lines {
		if strings.HasPrefix(l, "== ") {
			inFig11 = strings.HasPrefix(l, "== fig11:")
		}
		if f := strings.Fields(l); inFig11 && len(f) > 1 && f[0] == "bt.C" {
			lines[i] = strings.Replace(l, f[len(f)-1], "9.999", 1)
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no fig11 bt.C row in the reference render")
	}
	p.oracle = func() ([]byte, error) { return []byte(strings.Join(lines, "\n")), nil }
	res, err := runWorkload(p, "matrix-full", 1, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Errorf("mutated fig11 row: %d of %d failed, correct=%v; want failures", res.Failed, res.Attempted, res.Correct)
	}
}

func TestJudge(t *testing.T) {
	seq := func(from, step float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, from+step*float64(i))
		}
		return xs
	}
	add := func(xs []float64, d float64) []float64 {
		out := append([]float64{}, xs...)
		for i := range out {
			out[i] += d
		}
		return out
	}
	ninthLoses := add(seq(100, 1), 20)
	ninthLoses[8] = 90
	eighthAndNinthLose := append([]float64{}, ninthLoses...)
	eighthAndNinthLose[7] = 90
	for _, tc := range []struct {
		name   string
		p, c   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"ties", seq(100, 0), seq(100, 0), true, 0.05, vSame},
		{"small drift", seq(100, 1), add(seq(100, 1), -2), true, 0.1, vSame},
		{"9 of 10 wins", seq(100, 1), ninthLoses, true, 0.25, vGain},
		{"8 of 10 wins", seq(100, 1), eighthAndNinthLose, true, 0.25, vSame},
		{"all better but only 5 pairs", seq(100, 1)[:5], add(seq(100, 1)[:5], 20), true, 0.25, vSame},
		{"lower is better", seq(100, 1), add(seq(100, 1), -20), false, 0.25, vGain},
		{"regression", seq(100, 1), add(seq(100, 1), -20), true, 0.1, vRegression},
		{"spread above bound", seq(100, 10), add(seq(100, 10), -1), true, 0.05, vUnresolved},
		{"spread above bound, every change run better", seq(100, 10), add(seq(100, 10), 200), true, 0.05, vGain},
	} {
		if got := judge(tc.p, tc.c, tc.higher, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareSetsCountsCrashes checks that runs that crashed, and sides
// that cannot be paired, count as regressions.
func TestCompareSetsCountsCrashes(t *testing.T) {
	bf := &benchmarkFile{Workloads: []workloadDecl{{"w"}},
		EndToEnd: []metricDecl{{"ops_per_s", "1/s", "higher", 0.1}}}
	runs := func(n int) []record {
		var rs []record
		for i := 0; i < n; i++ {
			rs = append(rs, record{Workload: "w", result: result{Correct: true, Attempted: 10,
				Metrics: map[string]metric{"ops_per_s": {Value: 100 + float64(i), Unit: "1/s"}}}})
		}
		return rs
	}
	crashed := record{Workload: "w", result: result{Attempted: 1, Failed: 1}}
	oneCrash := runs(10)
	oneCrash[3] = crashed
	allCrash := []record{crashed, crashed, crashed, crashed, crashed, crashed, crashed, crashed, crashed, crashed}
	for _, tc := range []struct {
		name   string
		change []record
		want   int // the metric row and the failure-share row can each count
	}{
		{"identical", runs(10), 0},
		{"one run crashed", oneCrash, 1},
		{"every run crashed", allCrash, 2},
		{"fewer runs", runs(9), 1},
		{"no runs", nil, 1},
	} {
		var out strings.Builder
		got := compareSets(&out, bf, map[string][]record{"w": runs(10)}, map[string][]record{"w": tc.change})
		if got != tc.want {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"tdram/internal/dramcache.(*chanCtl).pass":         "dramcache",
		"tdram/internal/obs/service.(*Hist).Observe":       "obs",
		"tdram/internal/stats.SortedKeys[go.shape.string]": "stats",
		"runtime.mallocgc":                    "runtime",
		"internal/runtime/syscall.Syscall6":   "runtime",
		"memeqbody":                           "runtime",
		"net/http.(*conn).serve":              "transport",
		"internal/poll.(*FD).Read":            "transport",
		"syscall.Syscall":                     "transport",
		"encoding/json.(*decodeState).object": "stdlib",
		"main.(*serveInst).client":            "other",
	} {
		if got := bucket(fn); got != want {
			t.Errorf("bucket(%q) = %s, want %s", fn, got, want)
		}
	}
}
