// Command tdperf is the repository's benchmark. It times the simulator
// and the tdserve service from outside, through their public entry
// points, and checks every output it times against an oracle.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	tdperf --workload cell-hit --seed 1 --seconds 20 --trace 0   # one workload, this process
//	tdperf run -runs 5 -o runs.json          # every workload, each in a child process
//	tdperf trace -o trace.json               # the same with profiling: per-layer metrics
//	tdperf compare -parent a.json -change b.json   # the gain and regression rules
//
// A single-workload run prints one "workload metric value unit" line per
// metric and, as its last line, a JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
// metrics. See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"tdram/internal/stats"
)

// wallNow and wallSince isolate the benchmark's wall-clock reads behind
// one annotated seam so the determinism analyzer covers the rest.
func wallNow() time.Time {
	return time.Now() //tdlint:allow determinism — benchmark wall-clock timing, not simulated time
}

func wallSince(t time.Time) time.Duration {
	return time.Since(t) //tdlint:allow determinism — benchmark wall-clock timing, not simulated time
}

// defaultSeconds is how long one run measures; BENCHMARK.json's
// run_seconds holds the same value.
const defaultSeconds = 20

// outDir is where profiles and Chrome traces go: the directory run.sh
// builds into, so nothing lands outside the build output.
func outDir() string {
	if d := os.Getenv("TDPERF_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdSet(os.Args[2:], false))
		case "trace":
			os.Exit(cmdSet(os.Args[2:], true))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		}
	}
	os.Exit(cmdOne(os.Args[1:]))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// cmdOne runs one workload in this process.
func cmdOne(args []string) int {
	fs := flag.NewFlagSet("tdperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "1 profiles the run and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "tdperf: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	res, err := runWorkload(defaultParams(), *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdperf:", err)
		return 1
	}
	for _, k := range stats.SortedKeys(res.Metrics) {
		fmt.Printf("%s %s %v %s\n", *name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdperf:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// env records where a set of runs was measured.
type env struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	host, _ := os.Hostname() // diagnostic only
	e := env{Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "-dirty"
		}
	}
	return e
}

// record is one child run in a set file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// setFile is what run and trace write and compare reads.
type setFile struct {
	Env   env      `json:"env"`
	Trace bool     `json:"trace"`
	Runs  []record `json:"runs"`
}

// cmdSet runs every workload, each in its own child process, one after
// another, runs times with consecutive seeds. A child that fails is
// recorded as one failed operation with no metrics, so the set keeps one
// record per run and compare counts the crash against the change.
func cmdSet(args []string, trace bool) int {
	fs := flag.NewFlagSet("tdperf run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	runs := fs.Int("runs", 1, "runs per workload")
	out := fs.String("o", "", "write the runs as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdperf:", err)
		return 1
	}
	set := setFile{Env: currentEnv(), Trace: trace}
	fmt.Fprintf(os.Stderr, "tdperf: host %s, %d CPUs, GOMAXPROCS %d, %s, commit %s\n",
		set.Env.Host, set.Env.NProc, set.Env.GOMAXPROCS, set.Env.GoVersion, set.Env.Commit)
	status := 0
	for r := 0; r < *runs; r++ {
		for _, name := range workloadNames() {
			rec := record{Workload: name, Seed: *seed + uint64(r)}
			res, err := runChild(exe, rec.Workload, rec.Seed, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tdperf: %s seed %d: %v\n", name, rec.Seed, err)
				res = result{Attempted: 1, Failed: 1}
			}
			rec.result = res
			for _, k := range stats.SortedKeys(res.Metrics) {
				fmt.Printf("%s %s %v %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
			}
			if !res.Correct {
				fmt.Printf("%s FAILED %d of %d checks\n", name, res.Failed, res.Attempted)
				status = 1
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdperf:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process and parses its last
// output line.
func runChild(exe, name string, seed uint64, trace bool) (result, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(defaultSeconds), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("parsing result line %q: %v", last, err)
	}
	return res, nil
}
