// Command tdbench regenerates the paper's evaluation artifacts: every
// matrix-derived figure (Figs. 1-3, 9-13, Table IV) and the standalone
// studies (§V-D predictor, §V-E flush buffer, §V-F set associativity)
// plus the TDRAM design-choice ablations.
//
// Usage:
//
//	tdbench                          # all matrix figures, quick scale
//	tdbench -scale full              # all 28 workloads (several minutes)
//	tdbench -exp fig9,tab4           # selected experiments
//	tdbench -exp flushbuf,setassoc   # standalone studies
//	tdbench -jobs 4                  # bound the matrix worker pool
//	tdbench -v                       # per-run progress lines
//
// The matrix fans its (design, workload) cells out across -jobs workers
// (default: GOMAXPROCS); results are bit-identical to a serial run. One
// warmup image is built per workload and every design cell forks from it
// instead of repeating the design-independent functional warmup. A
// failed cell does not abort the sweep: the finished cells still render
// (reports note the skipped workloads) and tdbench exits nonzero.
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

// matrixExps are the experiments derived from the shared run matrix.
var matrixExps = map[string]func(*tdram.Matrix) *tdram.Report{
	"fig1":  tdram.Fig1,
	"fig2":  tdram.Fig2,
	"fig3":  tdram.Fig3,
	"fig9":  tdram.Fig9,
	"fig10": tdram.Fig10,
	"fig11": tdram.Fig11,
	"fig12": tdram.Fig12,
	"tab4":  tdram.Tab4,
	"fig13": tdram.Fig13,
}

// standaloneExps run their own parameter sweeps.
var standaloneExps = map[string]func(tdram.Scale) (*tdram.Report, error){
	"predictor":        tdram.PredictorStudy,
	"prefetcher":       tdram.PrefetcherStudy,
	"flushbuf":         tdram.FlushBufferStudy,
	"setassoc":         tdram.SetAssocStudy,
	"abl-probing":      tdram.AblationProbing,
	"abl-probe-policy": tdram.AblationProbePolicy,
	"abl-flush":        tdram.AblationFlushBuffer,
	"abl-condcol":      tdram.AblationCondColumn,
	"abl-pagepolicy":   tdram.AblationPagePolicy,
	"resilience":       tdram.Resilience,
	"latency":          tdram.LatencyStudy,
}

var matrixOrder = []string{"fig1", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12", "tab4", "fig13"}
var standaloneOrder = []string{"predictor", "prefetcher", "flushbuf", "setassoc", "abl-probing", "abl-probe-policy", "abl-flush", "abl-condcol", "abl-pagepolicy", "resilience", "latency"}

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
		jobs       = flag.Int("jobs", 0, "matrix cells simulated concurrently (0 = GOMAXPROCS)")
		faultRate  = flag.Float64("fault-rate", 0, "per-access fault-injection probability applied to every cache run (0 disables)")
		faultSeed  = flag.Uint64("fault-seed", 1, "fault-injection PRNG seed")
		watchdog   = flag.String("watchdog", "", "override the scale's no-progress watchdog window (e.g. 10ms; 0 disables)")
		latency    = flag.Bool("latency", false, "shorthand for adding the 'latency' attribution study to -exp")
		flightReq  = flag.Int("flight-recorder", 0, "arm a flight recorder of the last N request journeys in every run (0 disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		verbose    = flag.Bool("v", false, "print per-run progress")
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
		ids = matrixOrder
	case "studies":
		ids = standaloneOrder
	case "all":
		ids = append(append([]string{}, matrixOrder...), standaloneOrder...)
	default:
		ids = strings.Split(*expList, ",")
	}
	if *latency && !contains(ids, "latency") {
		ids = append(ids, "latency")
	}

	needMatrix := false
	for _, id := range ids {
		if _, ok := matrixExps[id]; ok {
			needMatrix = true
		} else if _, ok := standaloneExps[id]; !ok {
			return fmt.Errorf("unknown experiment %q (known: %s / %s)",
				id, strings.Join(matrixOrder, ","), strings.Join(standaloneOrder, ","))
		}
	}

	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	summary := &benchSummary{
		Timestamp: wallNow().Format(time.RFC3339),
		Scale:     scale.Name,
	}

	var m *tdram.Matrix
	var sweepErr error
	if needMatrix {
		// Ctrl-C cancels the sweep between cells: in-flight cells finish,
		// the rest fail with context.Canceled, and the completed part of
		// the matrix still renders below instead of the pool silently
		// running the whole sweep to the end.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		start := wallNow()
		njobs := *jobs
		if njobs <= 0 {
			njobs = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "tdbench: running %d x %d matrix at scale %q with %d jobs...\n",
			len(scale.Workloads), 7, scale.Name, njobs)
		var err error
		m, err = tdram.RunMatrixOpts(scale, tdram.MatrixOptions{
			Jobs: *jobs, Progress: progress, Context: ctx,
		})
		if err != nil {
			// Per-cell failures: render whatever completed, exit nonzero.
			if len(m.Results) == 0 {
				return err
			}
			failed := m.MissingCells()
			fmt.Fprintf(os.Stderr, "tdbench: WARNING: %d matrix cell(s) failed; rendering the %d completed cells\n",
				len(failed), len(m.Results))
			for _, e := range cellErrors(err) {
				fmt.Fprintf(os.Stderr, "tdbench:   %s\n", firstLine(e.Error()))
			}
			sweepErr = fmt.Errorf("%d matrix cell(s) failed", len(failed))
		}
		wall := wallSince(start)
		cellsPerSec := 0.0
		if secs := wall.Seconds(); secs > 0 {
			cellsPerSec = float64(len(m.Results)) / secs
		}
		fmt.Fprintf(os.Stderr, "tdbench: matrix done in %v: %d cells, %.2f cells/sec\n",
			wall.Round(time.Second), len(m.Results), cellsPerSec)
		summary.Matrix = matrixSummary(m, wall)
	}

	emit := func(rep *tdram.Report, wall time.Duration) error {
		fmt.Println(rep)
		summary.Experiments = append(summary.Experiments, experimentSummary{
			ID: rep.ID, Title: rep.Title, WallSeconds: wall.Seconds(),
			Summary: rep.Summary, PaperClaim: rep.PaperClaim,
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

	for _, id := range ids {
		if f, ok := matrixExps[id]; ok {
			start := wallNow()
			rep := f(m)
			if err := emit(rep, wallSince(start)); err != nil {
				return err
			}
			continue
		}
		start := wallNow()
		rep, err := standaloneExps[id](scale)
		if err != nil {
			return err
		}
		if err := emit(rep, wallSince(start)); err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "tdbench: %s done in %v\n", id, wallSince(start).Round(time.Second))
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

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
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
	ID          string   `json:"id"`
	Title       string   `json:"title"`
	WallSeconds float64  `json:"wall_seconds"`
	Summary     []string `json:"summary,omitempty"`
	PaperClaim  string   `json:"paper_claim,omitempty"`
}

type matrixJSON struct {
	Workloads   []string `json:"workloads"`
	Runs        int      `json:"runs"`
	WallSeconds float64  `json:"wall_seconds"`
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
