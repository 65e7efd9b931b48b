package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"` // no bound
}

type workloadDecl struct {
	Name string `json:"name"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// The verdicts of one (workload, metric) comparison.
const (
	vGain       = "gain"
	vSame       = "same"
	vUnresolved = "unresolved"
	vRegression = "REGRESSION"
)

// judgement compares the parent's and the change's runs of one metric.
type judgement struct {
	parent, change float64 // medians
	q1, q3         float64 // the parent's quartiles
	worse          float64 // how much worse the change's median is, as a share of the parent's
	wins, pairs    int
	verdict        string
}

// judge applies the gain and regression rules. Runs pair by index, so
// the two sides should have been run alternately. A gain needs at least
// ten pairs, the change winning nine tenths of them (ties count for
// neither), and the medians differing by more than the parent's
// interquartile distance. A regression is a median worse than the
// parent's by more than bound. When the parent's own spread exceeds the
// bound the metric is unresolved, unless every change run beats every
// parent run.
func judge(p, c []float64, higher bool, bound float64) judgement {
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	var j judgement
	j.q1, j.parent, j.q3 = quartiles(p)
	_, j.change, _ = quartiles(c)
	j.worse = (j.change - j.parent) / math.Abs(j.parent)
	if higher {
		j.worse = -j.worse
	}
	j.pairs = min(len(p), len(c))
	for i := 0; i < j.pairs; i++ {
		if better(c[i], p[i]) {
			j.wins++
		}
	}
	allBetter := len(p) > 0 && len(c) > 0
	for _, cv := range c {
		for _, pv := range p {
			allBetter = allBetter && better(cv, pv)
		}
	}
	spread := (j.q3 - j.q1) / math.Abs(j.parent)
	switch {
	case spread > bound && !allBetter:
		j.verdict = vUnresolved
	case j.worse > bound:
		j.verdict = vRegression
	case j.pairs >= 10 && j.wins*10 >= 9*j.pairs && better(j.change, j.parent) &&
		math.Abs(j.change-j.parent) > j.q3-j.q1:
		j.verdict = vGain
	default:
		j.verdict = vSame
	}
	return j
}

// cmdCompare compares two sets of runs metric by metric and workload by
// workload, with the directions and bounds of BENCHMARK.json in the
// working directory, and exits 1 on any regression.
func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("tdperf compare", flag.ContinueOnError)
	parentFiles := fs.String("parent", "", "comma-separated run files of the parent commit")
	changeFiles := fs.String("change", "", "comma-separated run files of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := loadBenchmark("BENCHMARK.json")
	var parent, change map[string][]record
	if err == nil {
		parent, err = loadRuns(*parentFiles)
	}
	if err == nil {
		change, err = loadRuns(*changeFiles)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdperf compare:", err)
		return 2
	}
	if n := compareSets(os.Stdout, bf, parent, change); n > 0 {
		fmt.Printf("%d regression(s)\n", n)
		return 1
	}
	return 0
}

// compareSets prints one row per (workload, metric) and a failure-share
// row per workload, and returns the number of regressions. A workload
// whose two sides hold different numbers of runs cannot be paired and
// counts as a regression. A run that crashed (no metrics) drops out of
// the metric rows together with its partner and shows in the failure
// share instead.
func compareSets(w io.Writer, bf *benchmarkFile, parent, change map[string][]record) int {
	regressions := 0
	fmt.Fprintf(w, "%-15s %-19s %14s %27s %14s %8s %6s %6s  %s\n",
		"workload", "metric", "parent", "parent q1..q3", "change", "worse", "bound", "wins", "verdict")
	for _, wl := range bf.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 || len(p) != len(c) {
			fmt.Fprintf(w, "%-15s %-19s %d parent runs, %d change runs  %s\n", wl.Name, "-", len(p), len(c), vRegression)
			regressions++
			continue
		}
		for _, m := range bf.EndToEnd {
			pv, cv, ok := paired(p, c, m.Name)
			if !ok || len(pv) == 0 {
				what := "MISSING on one side"
				if ok {
					what = "no pair of runs both finished"
				}
				fmt.Fprintf(w, "%-15s %-19s %s  %s\n", wl.Name, m.Name, what, vRegression)
				regressions++
				continue
			}
			j := judge(pv, cv, m.Better == "higher", m.Bound)
			if j.verdict == vRegression {
				regressions++
			}
			fmt.Fprintf(w, "%-15s %-19s %14.6g %13.6g..%-13.6g %14.6g %7.1f%% %5.1f%% %2d/%-3d  %s\n",
				wl.Name, m.Name, j.parent, j.q1, j.q3, j.change, 100*j.worse, 100*m.Bound, j.wins, j.pairs, j.verdict)
		}
		// A change may not fail a larger share of its operations.
		pf, cf := failShare(p), failShare(c)
		verdict := vSame
		if cf > pf {
			verdict = vRegression
			regressions++
		}
		fmt.Fprintf(w, "%-15s %-19s %14.6g %27s %14.6g %8s %6s %6s  %s\n",
			wl.Name, "fail_frac", pf, "", cf, "", "0%", "", verdict)
	}
	return regressions
}

// loadRuns reads run files and groups their runs by workload, in file
// and run order.
func loadRuns(files string) (map[string][]record, error) {
	if files == "" {
		return nil, fmt.Errorf("no run files given")
	}
	runs := make(map[string][]record)
	for _, path := range strings.Split(files, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var set setFile
		if err := json.Unmarshal(b, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range set.Runs {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, nil
}

// paired returns the metric's values from the pairs of runs (same
// position on both sides) in which neither run crashed. It reports false
// when a run that finished lacks the metric.
func paired(p, c []record, name string) (pv, cv []float64, ok bool) {
	for i := range p {
		if len(p[i].Metrics) == 0 || len(c[i].Metrics) == 0 {
			continue
		}
		pm, pok := p[i].Metrics[name]
		cm, cok := c[i].Metrics[name]
		if !pok || !cok {
			return nil, nil, false
		}
		pv, cv = append(pv, pm.Value), append(cv, cm.Value)
	}
	return pv, cv, true
}

func failShare(runs []record) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
