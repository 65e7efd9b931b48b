// Command tdsim runs one full-system DRAM-cache simulation and prints
// its measurements: outcome breakdown, tag-check latency, queueing
// delay, bandwidth and energy.
//
// Usage:
//
//	tdsim -design tdram -workload ft.C
//	tdsim -design cascade-lake -workload pr.25 -capacity 33554432
//	tdsim -design tdram -workload ft.C -trace out.json -metrics out.csv
//	tdsim -show-config
//
// With -trace, the run records every committed DRAM command, tag-check
// result, probe and flush-buffer event as Chrome trace-event JSON; load
// the file at https://ui.perfetto.dev to see per-channel CA/DQ/HM-bus
// and bank timelines in the style of the paper's Fig. 5-7. With
// -metrics, queue depths, bus utilization and miss ratio are sampled
// every -metrics-interval of simulated time into CSV (or JSON if the
// file name ends in .json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tdram"
	"tdram/internal/dram"
	"tdram/internal/mem"
	"tdram/internal/overhead"
	"tdram/internal/sim"
)

func main() {
	var (
		designName    = flag.String("design", "tdram", "cache design: cascade-lake, alloy, bear, ndc, tdram, ideal, no-cache")
		wlName        = flag.String("workload", "ft.C", "workload name (see -list)")
		capacity      = flag.Uint64("capacity", 16<<20, "DRAM cache capacity in bytes")
		requests      = flag.Int("requests", 10000, "measured accesses per core")
		warmup        = flag.Int("warmup", 1000, "timed warmup accesses per core")
		ways          = flag.Int("ways", 1, "cache associativity (1 = direct-mapped)")
		probe         = flag.Bool("probe", true, "TDRAM early tag probing")
		predictor     = flag.Bool("predictor", false, "MAP-I predictor (cascade-lake/alloy only)")
		flushSize     = flag.Int("flush", 16, "flush/victim buffer entries (tdram/ndc)")
		seed          = flag.Uint64("seed", 1, "workload PRNG seed")
		faultRate     = flag.Float64("fault-rate", 0, "per-access fault-injection probability (0 disables)")
		faultSeed     = flag.Uint64("fault-seed", 1, "fault-injection PRNG seed")
		watchdog      = flag.String("watchdog", "10ms", "no-progress watchdog window of simulated time (0 disables)")
		tracePath     = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file")
		metricsPath   = flag.String("metrics", "", "write sampled time-series metrics (.csv or .json)")
		metricsEvery  = flag.String("metrics-interval", "1us", "metrics sampling period of simulated time (e.g. 500ns, 1us)")
		latency       = flag.Bool("latency", false, "attribute per-request latency and print the journey breakdown")
		flightDepth   = flag.Int("flight-recorder", 0, "keep a flight recorder of the last N request journeys (0 disables)")
		list          = flag.Bool("list", false, "list workloads and exit")
		showConfig    = flag.Bool("show-config", false, "print the Table III device timing and exit")
		showOverheads = flag.Bool("show-overheads", false, "print the paper's analytical area/pin overheads and exit")
	)
	flag.Parse()

	if *list {
		for _, wl := range tdram.Workloads() {
			fmt.Printf("%-9s suite=%-6s footprint=%.2fx band=%s writes=%.0f%%\n",
				wl.Name, wl.Suite, wl.FootprintRatio, wl.Band, wl.WriteFrac*100)
		}
		return
	}
	if *showConfig {
		printDeviceConfig(*capacity)
		return
	}
	if *showOverheads {
		printOverheads()
		return
	}

	design, err := tdram.ParseDesign(*designName)
	if err != nil {
		fatal(err)
	}
	wl, err := tdram.WorkloadByName(*wlName)
	if err != nil {
		fatal(err)
	}

	cfg := tdram.NewSystemConfig(design, wl, *capacity)
	cfg.RequestsPerCore = *requests
	cfg.WarmupPerCore = *warmup
	cfg.Seed = *seed
	if design != tdram.NoCache {
		cfg.Cache.Ways = *ways
		cfg.Cache.FlushEntries = *flushSize
		if design == tdram.TDRAM {
			cfg.Cache.ProbeEnabled = *probe
		}
		if *predictor {
			cfg.Cache.UsePredictor = true
		}
		if *faultRate > 0 {
			cfg.Cache.Fault = tdram.FaultConfig{Rate: *faultRate, Seed: *faultSeed}
		}
	}
	if *watchdog != "0" {
		w, err := tdram.ParseTick(*watchdog)
		if err != nil {
			fatal(fmt.Errorf("bad -watchdog %q: %v", *watchdog, err))
		}
		cfg.Watchdog = w
	}

	if *tracePath != "" {
		cfg.Obs.Trace = true
	}
	if *metricsPath != "" {
		iv, err := tdram.ParseTick(*metricsEvery)
		if err != nil || iv <= 0 {
			fatal(fmt.Errorf("bad -metrics-interval %q", *metricsEvery))
		}
		cfg.Obs.MetricsInterval = iv
	}
	cfg.Obs.Journeys = *latency
	cfg.Obs.FlightRecorder = *flightDepth

	sys, err := tdram.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if *latency {
		printJourneys(sys.Observer())
	}
	if err := writeObservations(sys.Observer(), *tracePath, *metricsPath); err != nil {
		fatal(err)
	}
}

// printJourneys renders the per-class journey attribution: counts,
// tail percentiles and the phase breakdown in mean ns per request.
func printJourneys(o *tdram.Observer) {
	fmt.Println("request journeys:")
	for c := mem.JourneyClass(0); c < mem.JourneyClass(mem.NumJourneyClasses); c++ {
		n := o.JourneyClassCount(c)
		if n == 0 {
			continue
		}
		h := o.JourneyClassHist(c)
		fmt.Printf("  %-11s %7d  mean %8.1fns  p50 %8.0f  p90 %8.0f  p99 %8.0f  p99.9 %8.0f\n",
			c, n, h.MeanNS(), h.PercentileNS(0.50), h.PercentileNS(0.90),
			h.PercentileNS(0.99), h.PercentileNS(0.999))
		for p := mem.Phase(0); p < mem.Phase(mem.NumPhases); p++ {
			sum := o.JourneyPhaseSum(c, p)
			if sum == 0 {
				continue
			}
			fmt.Printf("      %-14s %8.1fns/req\n", p, sum.Nanoseconds()/float64(n))
		}
	}
}

// writeObservations saves the run's trace and metrics files and prints
// the observer's run-summary counters.
func writeObservations(o *tdram.Observer, tracePath, metricsPath string) error {
	if o == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := o.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		n, dropped := o.TraceEvents()
		fmt.Printf("trace         %s (%d events", tracePath, n)
		if dropped > 0 {
			fmt.Printf(", %d dropped", dropped)
		}
		fmt.Printf(") — load at https://ui.perfetto.dev\n")
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		write := o.WriteMetricsCSV
		if strings.HasSuffix(metricsPath, ".json") {
			write = o.WriteMetricsJSON
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics       %s (%d samples, %d series)\n",
			metricsPath, o.Samples(), len(o.MetricNames()))
	}
	if cs := o.Counters(); len(cs) > 0 {
		fmt.Println("observer counters:")
		for _, c := range cs {
			fmt.Printf("  %-28s %d\n", c.Name, c.Value)
		}
	}
	if _, dropped := o.TraceEvents(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "tdsim: WARNING: %d trace event(s) dropped (buffer cap); the trace is incomplete\n", dropped)
	}
	if dropped := o.SamplesDropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "tdsim: WARNING: %d metric sample(s) dropped (budget cap); the series is incomplete\n", dropped)
	}
	for _, snap := range o.FlightSnapshots() {
		fmt.Println(snap)
	}
	return nil
}

func printResult(r *tdram.Result) {
	fmt.Printf("design        %v\n", r.Design)
	fmt.Printf("workload      %s\n", r.Workload)
	fmt.Printf("runtime       %v\n", r.Runtime)
	fmt.Printf("throughput    %.1f accesses/us\n", r.Throughput())
	fmt.Printf("l2 miss rate  %.3f\n", r.L2MissRate)
	if r.Design == tdram.NoCache {
		fmt.Printf("ddr5 reads    %d (queueing %.1fns, latency %.1fns)\n",
			r.MM.Reads, r.MM.ReadQueueing.Value(), r.MM.ReadLatency.Value())
		return
	}
	o := &r.Cache.Outcomes
	fmt.Printf("demands       %d reads, %d writes\n", r.Cache.DemandReads, r.Cache.DemandWrites)
	fmt.Printf("miss ratio    %.3f\n", o.MissRatio())
	fmt.Println("outcomes:")
	for out := mem.ReadHit; out < mem.Outcome(mem.NumOutcomes); out++ {
		fmt.Printf("  %-17s %d\n", out, o.Count(out))
	}
	fmt.Printf("tag check     %.2f ns avg (p95 %.0f, p99 %.0f)\n", r.Cache.TagCheck.Value(),
		r.Cache.TagCheckHist.PercentileNS(0.95), r.Cache.TagCheckHist.PercentileNS(0.99))
	fmt.Printf("read queueing %.2f ns avg\n", r.Cache.ReadQueueing.Value())
	fmt.Printf("read latency  %.2f ns avg (p95 %.0f, p99 %.0f)\n", r.Cache.ReadLatency.Value(),
		r.Cache.ReadLatencyHist.PercentileNS(0.95), r.Cache.ReadLatencyHist.PercentileNS(0.99))
	tr := &r.Cache.Traffic
	fmt.Printf("traffic       cache %.1f MiB (demand %.1f, fill %.1f, victim %.1f, discard %.1f, overfetch %.1f), mm %.1f MiB\n",
		mib(tr.CacheTotal()), mib(tr.DemandBytes), mib(tr.FillBytes), mib(tr.VictimBytes),
		mib(tr.DiscardBytes), mib(tr.OverheadBytes), mib(tr.MMDemandBytes+tr.MMWritebackBytes))
	fmt.Printf("bloat factor  %.2f\n", r.Cache.BloatFactor())
	if r.Design == tdram.TDRAM {
		fmt.Printf("probes        %d (miss-clean %d, hit %d, miss-dirty %d)\n",
			r.Cache.Probes, r.Cache.ProbeMissClean, r.Cache.ProbeHits, r.Cache.ProbeMissDirty)
		fmt.Printf("flush buffer  avg %.1f, max %d, stalls %d (drains: refresh %d, idle-slot %d, explicit %d)\n",
			r.Cache.FlushOccupancy.Value(), r.Cache.FlushMax, r.Cache.FlushStalls,
			r.Cache.FlushDrainRefresh, r.Cache.FlushDrainIdleSlot, r.Cache.FlushDrainExplicit)
	}
	if r.Cache.PredictorMissStarts > 0 {
		fmt.Printf("predictor     %d early fetches, accuracy %.2f\n",
			r.Cache.PredictorMissStarts, r.Cache.PredictorAccuracy)
	}
	if f := r.Cache.Fault; f != (tdram.FaultCounters{}) {
		fmt.Printf("fault         injected=%d corrected=%d detected=%d retried=%d exhausted=%d sets-retired=%d bypassed=%d victims-lost=%d\n",
			f.Injected, f.Corrected, f.Detected, f.Retries, f.Exhausted, f.SetsRetired, f.Bypasses, f.VictimsLost)
	}
	fmt.Printf("energy        cache %.3f mJ + main %.3f mJ = %.3f mJ\n",
		r.Energy.Cache.Total()*1e3, r.Energy.Main.Total()*1e3, r.Energy.Total()*1e3)
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func printDeviceConfig(capacity uint64) {
	p := dram.CacheDeviceParams(capacity)
	fmt.Printf("cache device (%s), %d channels x %d banks, capacity %d MiB\n",
		p.Name, p.Channels, p.Banks, capacity>>20)
	rows := []struct {
		name string
		v    sim.Tick
	}{
		{"tBURST", p.TBURST}, {"tRCD", p.TRCD}, {"tRCD_WR", p.TRCDWR},
		{"tRP", p.TRP}, {"tRAS", p.TRAS}, {"tCL", p.TCL}, {"tCWL", p.TCWL},
		{"tWR", p.TWR}, {"tRRD", p.TRRD}, {"tXAW", p.TFAW},
		{"tREFI", p.TREFI}, {"tRFC", p.TRFC},
		{"tRCD_TAG", p.TRCDTag}, {"tHM_int", p.THMInt}, {"tHM", p.THM},
		{"tRC_TAG", p.TRCTag}, {"tRRD_TAG", p.TRRDTag},
	}
	for _, r := range rows {
		fmt.Printf("  %-9s %v\n", r.name, r.v)
	}
	d := dram.DDR5Params()
	fmt.Printf("main memory (%s), %d channels x %d banks\n", d.Name, d.Channels, d.Banks)
}

func printOverheads() {
	area := overhead.PaperAreaModel()
	sig := overhead.PaperSignalModel()
	tag := overhead.PaperTagStorage()
	fmt.Printf("die area impact      %.2f%% (paper: 8.24%%)\n", area.DieAreaImpact()*100)
	fmt.Printf("interface signals    %d total, +%d vs HBM3 (+%.1f%%); fits spare bumps: %v\n",
		sig.TDRAMSignals(), sig.ExtraSignals(), sig.SignalOverhead()*100, sig.FitsInPackage())
	fmt.Printf("tag storage          %d-bit tag, %d GiB of tag+metadata for a %d GiB cache over 1 PB\n",
		tag.TagBits(), tag.StorageBytes()>>30, tag.CacheBytes>>30)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdsim:", err)
	os.Exit(1)
}
