// Command tdbench regenerates the paper's evaluation artifacts: every
// matrix-derived figure (Figs. 1-3, 9-13, Table IV) and the studies
// (§V-D predictor and prefetcher, §V-E flush buffer, §V-F set
// associativity, the TDRAM design-choice ablations, fault resilience
// and latency attribution).
//
// Usage:
//
//	tdbench                          # all matrix figures, quick scale
//	tdbench -scale full -exp all     # all 28 workloads, figures and studies
//	tdbench -exp fig9,tab4           # selected experiments
//	tdbench -exp flushbuf,setassoc   # selected studies
//	tdbench -jobs 4                  # bound the worker pool
//	tdbench -v                       # per-cell progress lines
//
// Everything selected runs as one sweep of configuration cells: the
// matrix's (design, workload) cells and each study's cells together,
// each distinct configuration simulated once, fanned out across -jobs
// workers (default: GOMAXPROCS). Results are bit-identical to a serial
// run. One warmup image is built per image key (workload, seed, cores,
// capacity, ways, SRAM sizes), every cell forks from it instead of
// repeating the design-independent functional warmup, and it is dropped
// after its last cell. A failed cell does not abort the sweep: the
// finished cells still render (figures note the skipped workloads, a
// study with a failed cell is left out) and tdbench exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tdram"
	"tdram/internal/stats"
)

// wallNow and wallSince isolate tdbench's legitimate wall-clock reads —
// harness throughput measurement and report timestamps, never simulated
// time — behind one annotated seam so the determinism analyzer covers
// the rest of the command.
func wallNow() time.Time {
	return time.Now() //tdlint:allow determinism — harness wall-clock timing, not simulated time
}

func wallSince(t time.Time) time.Duration {
	return time.Since(t) //tdlint:allow determinism — harness wall-clock timing, not simulated time
}

func main() {
	if err := run(); err != nil {
		fatal(err)
	}
}

func run() error {
	var (
		scaleName  = flag.String("scale", "quick", "quick (6 workloads) or full (all 28)")
		expList    = flag.String("exp", "matrix", "comma-separated experiment ids, 'matrix', 'studies', or 'all'")
		csvDir     = flag.String("csv", "", "also write each experiment's table as <dir>/<id>.csv")
		jsonOut    = flag.Bool("json", false, "write a machine-readable run summary to BENCH_<timestamp>.json")
		jobs       = flag.Int("jobs", 0, "cells simulated concurrently (0 = GOMAXPROCS)")
		faultRate  = flag.Float64("fault-rate", 0, "per-access fault-injection probability applied to every cache run (0 disables)")
		faultSeed  = flag.Uint64("fault-seed", 1, "fault-injection PRNG seed")
		watchdog   = flag.String("watchdog", "", "override the scale's no-progress watchdog window (e.g. 10ms; 0 disables)")
		flightReq  = flag.Int("flight-recorder", 0, "arm a flight recorder of the last N request journeys in every run (0 disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		verbose    = flag.Bool("v", false, "print per-cell progress")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	var scale tdram.Scale
	switch *scaleName {
	case "quick":
		scale = tdram.QuickScale()
	case "full":
		scale = tdram.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	scale.FaultRate = *faultRate
	scale.FaultSeed = *faultSeed
	scale.FlightDepth = *flightReq
	if *watchdog != "" {
		if *watchdog == "0" {
			scale.Watchdog = 0
		} else {
			w, err := tdram.ParseTick(*watchdog)
			if err != nil {
				return fmt.Errorf("bad -watchdog %q: %v", *watchdog, err)
			}
			scale.Watchdog = w
		}
	}

	var ids []string
	switch *expList {
	case "matrix":
		ids = tdram.MatrixExperiments()
	case "studies":
		ids = tdram.StudyExperiments()
	case "all":
		ids = append(tdram.MatrixExperiments(), tdram.StudyExperiments()...)
	default:
		ids = strings.Split(*expList, ",")
	}

	cells := 0
	progress := func(s string) {
		cells++
		if *verbose {
			fmt.Fprintln(os.Stderr, s)
		}
	}

	summary := &benchSummary{
		Timestamp: wallNow().Format(time.RFC3339),
		Scale:     scale.Name,
	}

	// Ctrl-C cancels the sweep between cells: in-flight cells finish, the
	// rest fail with context.Canceled, and whatever completed still
	// renders below instead of the pool silently running to the end.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := wallNow()
	njobs := *jobs
	if njobs <= 0 {
		njobs = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "tdbench: running %d experiment(s) at scale %q with %d jobs...\n",
		len(ids), scale.Name, njobs)
	reps, m, err := tdram.Reproduce(scale, ids, tdram.MatrixOptions{
		Jobs: *jobs, Progress: progress, Context: ctx,
	})
	if reps == nil {
		return err // an unknown experiment id; nothing ran
	}
	var sweepErr error
	if err != nil {
		// Per-cell failures: render whatever completed, exit nonzero.
		if m != nil && len(m.Results) == 0 {
			return err
		}
		failed := cellErrors(err)
		fmt.Fprintf(os.Stderr, "tdbench: WARNING: %d cell(s) failed; rendering what completed\n", len(failed))
		for _, e := range failed {
			fmt.Fprintf(os.Stderr, "tdbench:   %s\n", firstLine(e.Error()))
		}
		sweepErr = fmt.Errorf("%d cell(s) failed", len(failed))
	}
	wall := wallSince(start)
	cellsPerSec := 0.0
	if secs := wall.Seconds(); secs > 0 {
		cellsPerSec = float64(cells) / secs
	}
	fmt.Fprintf(os.Stderr, "tdbench: sweep done in %v: %d cells, %.2f cells/sec\n",
		wall.Round(time.Second), cells, cellsPerSec)
	if m != nil {
		summary.Matrix = matrixSummary(m, wall)
	}

	emit := func(rep *tdram.Report) error {
		fmt.Println(rep)
		summary.Experiments = append(summary.Experiments, experimentSummary{
			ID: rep.ID, Title: rep.Title, Summary: rep.Summary, PaperClaim: rep.PaperClaim,
		})
		if *csvDir == "" {
			return nil
		}
		if csv := rep.CSV(); csv != "" {
			path := filepath.Join(*csvDir, rep.ID+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				return err
			}
		}
		for i := range rep.Artifacts {
			a := &rep.Artifacts[i]
			if csv := a.CSV(); csv != "" {
				path := filepath.Join(*csvDir, rep.ID+"_"+a.Name+".csv")
				if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for i, rep := range reps {
		if rep == nil {
			fmt.Fprintf(os.Stderr, "tdbench: WARNING: %s not rendered: one of its cells failed\n", ids[i])
			continue
		}
		if err := emit(rep); err != nil {
			return err
		}
	}

	if *jsonOut {
		path := fmt.Sprintf("BENCH_%s.json", wallNow().Format("20060102T150405"))
		if err := writeSummary(path, summary); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tdbench: wrote %s\n", path)
	}
	return sweepErr
}

// cellErrors unpacks an errors.Join aggregate into its parts.
func cellErrors(err error) []error {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// benchSummary is the -json output: what ran, how long it took, and the
// headline numbers, machine-readable for regression tracking.
type benchSummary struct {
	Timestamp   string              `json:"timestamp"`
	Scale       string              `json:"scale"`
	Matrix      *matrixJSON         `json:"matrix,omitempty"`
	Experiments []experimentSummary `json:"experiments"`
}

type experimentSummary struct {
	ID         string   `json:"id"`
	Title      string   `json:"title"`
	Summary    []string `json:"summary,omitempty"`
	PaperClaim string   `json:"paper_claim,omitempty"`
}

type matrixJSON struct {
	Workloads []string `json:"workloads"`
	Runs      int      `json:"runs"`
	// WallSeconds is the sweep's, which also ran any selected studies.
	WallSeconds float64 `json:"wall_seconds"`
	// SimulatedNS totals the measured-phase simulated time over all runs;
	// NSPerSecond is the simulation throughput the matrix achieved.
	SimulatedNS float64 `json:"simulated_ns"`
	NSPerSecond float64 `json:"simulated_ns_per_wall_second"`
	// Per-design aggregates over the matrix workloads.
	GeomeanSpeedupVsBaseline map[string]float64 `json:"geomean_speedup_vs_cascade_lake"`
	GeomeanMissRatio         map[string]float64 `json:"geomean_miss_ratio"`
	// FailedCells lists "workload/design" for cells that error'd or
	// panicked; the aggregates above cover only completed workloads.
	FailedCells []string `json:"failed_cells,omitempty"`
}

func matrixSummary(m *tdram.Matrix, wall time.Duration) *matrixJSON {
	mj := &matrixJSON{
		WallSeconds:              wall.Seconds(),
		GeomeanSpeedupVsBaseline: map[string]float64{},
		GeomeanMissRatio:         map[string]float64{},
	}
	for _, wl := range m.Scale.Workloads {
		mj.Workloads = append(mj.Workloads, wl.Name)
	}
	for _, k := range m.MissingCells() {
		mj.FailedCells = append(mj.FailedCells, fmt.Sprintf("%s/%v", k.Workload, k.Design))
	}
	// Sum in fixed (workload, design) order: ranging over the Results map
	// would accumulate the float total in a randomized order and perturb
	// simulated_ns's low bits from run to run.
	for _, wl := range m.Scale.Workloads {
		for _, d := range append(tdram.Designs(), tdram.NoCache) {
			if res := m.Get(d, wl.Name); res != nil {
				mj.Runs++
				mj.SimulatedNS += float64(res.Runtime) / 1e3 // ticks are ps
			}
		}
	}
	if s := wall.Seconds(); s > 0 {
		mj.NSPerSecond = mj.SimulatedNS / s
	}
	for _, d := range append(tdram.Designs(), tdram.NoCache) {
		var speedups, missRatios []float64
		for _, wl := range m.Scale.Workloads {
			res := m.Get(d, wl.Name)
			base := m.Get(tdram.CascadeLake, wl.Name)
			if res == nil || base == nil {
				continue
			}
			speedups = append(speedups, float64(base.Runtime)/float64(res.Runtime))
			if d != tdram.NoCache {
				missRatios = append(missRatios, res.Cache.Outcomes.MissRatio())
			}
		}
		mj.GeomeanSpeedupVsBaseline[d.String()] = stats.GeoMean(speedups)
		if d != tdram.NoCache {
			mj.GeomeanMissRatio[d.String()] = stats.GeoMean(missRatios)
		}
	}
	return mj
}

func writeSummary(path string, s *benchSummary) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdbench:", err)
	os.Exit(1)
}
