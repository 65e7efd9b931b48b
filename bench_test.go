// Benchmarks regenerating every table and figure of the paper's
// evaluation at a micro scale: each BenchmarkFigXX / BenchmarkTabXX runs
// the minimal set of full-system simulations that artifact needs and
// reports its headline number as a custom metric. `go test -bench=.`
// therefore exercises the complete reproduction pipeline end to end;
// `cmd/tdbench -scale full` produces the publication-scale numbers.
package tdram_test

import (
	"math"
	"testing"

	"tdram"
)

// benchWorkloads is a tiny band-balanced subset (one low-miss and one
// high-miss from each suite).
func benchWorkloads() []tdram.Workload {
	return []tdram.Workload{
		tdram.MustWorkload("bt.C"),
		tdram.MustWorkload("ft.C"),
		tdram.MustWorkload("bfs.22"),
		tdram.MustWorkload("pr.25"),
	}
}

const (
	benchCapacity = 8 << 20
	benchRequests = 1500
)

// benchRun executes one cell at micro scale.
func benchRun(b *testing.B, d tdram.Design, wl tdram.Workload) *tdram.Result {
	b.Helper()
	cfg := tdram.NewSystemConfig(d, wl, benchCapacity)
	cfg.RequestsPerCore = benchRequests
	cfg.WarmupPerCore = 300
	res, err := tdram.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// geomean over a slice.
func geomean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// BenchmarkKernelSystem is the event-kernel end-to-end cell: one
// TDRAM-design run of a single workload, so the measurement is dominated
// by schedule/fire churn on the simulation core rather than by figure
// bookkeeping. Its ns/op and allocs/op are the full-system kernel
// numbers CI uploads per push; the end-to-end benchmark is
// `bash bench/run.sh` (see bench/README.md).
func BenchmarkKernelSystem(b *testing.B) {
	wl := tdram.MustWorkload("ft.C")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRun(b, tdram.TDRAM, wl)
	}
}

// BenchmarkFig01Breakdown regenerates the Fig. 1 access breakdown.
func BenchmarkFig01Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inBand := 0
		for _, wl := range benchWorkloads() {
			res := benchRun(b, tdram.CascadeLake, wl)
			mr := res.Cache.Outcomes.MissRatio()
			if (wl.Band.String() == "low") == (mr < 0.30) {
				inBand++
			}
		}
		b.ReportMetric(float64(inBand)/float64(len(benchWorkloads())), "band-hit-rate")
	}
}

// BenchmarkFig02Queueing regenerates the Fig. 2 queueing comparison.
func BenchmarkFig02Queueing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cacheQ, baseQ []float64
		for _, wl := range benchWorkloads() {
			cacheQ = append(cacheQ, benchRun(b, tdram.CascadeLake, wl).Cache.ReadQueueing.Value())
			baseQ = append(baseQ, benchRun(b, tdram.NoCache, wl).MM.ReadQueueing.Value())
		}
		b.ReportMetric(mean(cacheQ), "cl-queueing-ns")
		b.ReportMetric(mean(baseQ), "nocache-queueing-ns")
	}
}

// BenchmarkFig03Bloat regenerates the Fig. 3 unuseful-traffic split.
func BenchmarkFig03Bloat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var fr []float64
		for _, wl := range benchWorkloads() {
			fr = append(fr, benchRun(b, tdram.Alloy, wl).Cache.Traffic.UnusefulFraction())
		}
		b.ReportMetric(mean(fr), "alloy-unuseful-frac")
	}
}

// BenchmarkFig09TagCheck regenerates the Fig. 9 tag-check comparison.
func BenchmarkFig09TagCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, wl := range benchWorkloads() {
			cl := benchRun(b, tdram.CascadeLake, wl).Cache.TagCheck.Value()
			td := benchRun(b, tdram.TDRAM, wl).Cache.TagCheck.Value()
			ratios = append(ratios, cl/td)
		}
		b.ReportMetric(geomean(ratios), "tagcheck-speedup-vs-cl")
	}
}

// BenchmarkFig10ReadQueueing regenerates Fig. 10.
func BenchmarkFig10ReadQueueing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var td, ndc []float64
		for _, wl := range benchWorkloads() {
			td = append(td, benchRun(b, tdram.TDRAM, wl).Cache.ReadQueueing.Value())
			ndc = append(ndc, benchRun(b, tdram.NDC, wl).Cache.ReadQueueing.Value())
		}
		b.ReportMetric(mean(td), "tdram-queueing-ns")
		b.ReportMetric(mean(ndc), "ndc-queueing-ns")
	}
}

// BenchmarkFig11Speedup regenerates the Fig. 11 headline speedup.
func BenchmarkFig11Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, wl := range benchWorkloads() {
			cl := benchRun(b, tdram.CascadeLake, wl)
			td := benchRun(b, tdram.TDRAM, wl)
			sp = append(sp, float64(cl.Runtime)/float64(td.Runtime))
		}
		b.ReportMetric(geomean(sp), "speedup-vs-cl")
	}
}

// BenchmarkFig12VsNoCache regenerates Fig. 12.
func BenchmarkFig12VsNoCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var tdSp, clSp []float64
		for _, wl := range benchWorkloads() {
			base := benchRun(b, tdram.NoCache, wl)
			tdSp = append(tdSp, float64(base.Runtime)/float64(benchRun(b, tdram.TDRAM, wl).Runtime))
			clSp = append(clSp, float64(base.Runtime)/float64(benchRun(b, tdram.CascadeLake, wl).Runtime))
		}
		b.ReportMetric(geomean(tdSp), "tdram-vs-nocache")
		b.ReportMetric(geomean(clSp), "cl-vs-nocache")
	}
}

// BenchmarkTab04Bloat regenerates the Table IV bloat factors.
func BenchmarkTab04Bloat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cl, td []float64
		for _, wl := range benchWorkloads() {
			if wl.Band.String() != "high" {
				continue
			}
			cl = append(cl, benchRun(b, tdram.CascadeLake, wl).Cache.BloatFactor())
			td = append(td, benchRun(b, tdram.TDRAM, wl).Cache.BloatFactor())
		}
		b.ReportMetric(geomean(cl), "cl-bloat-high")
		b.ReportMetric(geomean(td), "tdram-bloat-high")
	}
}

// BenchmarkFig13Energy regenerates the Fig. 13 relative energy.
func BenchmarkFig13Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rel []float64
		for _, wl := range benchWorkloads() {
			cl := benchRun(b, tdram.CascadeLake, wl).Energy.Cache.Total()
			td := benchRun(b, tdram.TDRAM, wl).Energy.Cache.Total()
			rel = append(rel, td/cl)
		}
		b.ReportMetric(geomean(rel), "tdram-energy-vs-cl")
	}
}

// BenchmarkSecVDPredictor regenerates the §V-D predictor study.
func BenchmarkSecVDPredictor(b *testing.B) {
	wl := tdram.MustWorkload("pr.25")
	for i := 0; i < b.N; i++ {
		base := benchRun(b, tdram.CascadeLake, wl)
		cfg := tdram.NewSystemConfig(tdram.CascadeLake, wl, benchCapacity)
		cfg.RequestsPerCore = benchRequests
		cfg.WarmupPerCore = 300
		cfg.Cache.UsePredictor = true
		pred, err := tdram.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(base.Runtime)/float64(pred.Runtime), "predictor-speedup")
	}
}

// BenchmarkSecVEFlushBuffer regenerates the §V-E sensitivity points.
func BenchmarkSecVEFlushBuffer(b *testing.B) {
	wl := tdram.MustWorkload("is.D")
	for i := 0; i < b.N; i++ {
		cfg := tdram.NewSystemConfig(tdram.TDRAM, wl, benchCapacity)
		cfg.RequestsPerCore = benchRequests
		cfg.WarmupPerCore = 300
		cfg.Cache.FlushEntries = 16
		res, err := tdram.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cache.FlushOccupancy.Value(), "avg-occupancy")
		b.ReportMetric(float64(res.Cache.FlushMax), "max-occupancy")
		b.ReportMetric(float64(res.Cache.FlushStalls), "stalls")
	}
}

// BenchmarkSecVFSetAssoc regenerates the §V-F associativity points.
func BenchmarkSecVFSetAssoc(b *testing.B) {
	wl := tdram.MustWorkload("bt.C")
	for i := 0; i < b.N; i++ {
		var runtimes []float64
		for _, ways := range []int{1, 4, 16} {
			cfg := tdram.NewSystemConfig(tdram.TDRAM, wl, benchCapacity)
			cfg.RequestsPerCore = benchRequests
			cfg.WarmupPerCore = 300
			cfg.Cache.Ways = ways
			res, err := tdram.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			runtimes = append(runtimes, float64(res.Runtime))
		}
		b.ReportMetric(maxF(runtimes)/minF(runtimes), "ways-runtime-spread")
	}
}

// BenchmarkAblationProbing measures the early-tag-probing ablation.
func BenchmarkAblationProbing(b *testing.B) {
	wl := tdram.MustWorkload("pr.25")
	for i := 0; i < b.N; i++ {
		on := benchRun(b, tdram.TDRAM, wl)
		cfg := tdram.NewSystemConfig(tdram.TDRAM, wl, benchCapacity)
		cfg.RequestsPerCore = benchRequests
		cfg.WarmupPerCore = 300
		cfg.Cache.ProbeEnabled = false
		off, err := tdram.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(off.Cache.TagCheck.Value()/on.Cache.TagCheck.Value(), "probe-tagcheck-gain")
	}
}

// BenchmarkAblationProbePolicy measures youngest- vs oldest-first probing.
func BenchmarkAblationProbePolicy(b *testing.B) {
	wl := tdram.MustWorkload("ft.C")
	for i := 0; i < b.N; i++ {
		young := benchRun(b, tdram.TDRAM, wl)
		cfg := tdram.NewSystemConfig(tdram.TDRAM, wl, benchCapacity)
		cfg.RequestsPerCore = benchRequests
		cfg.WarmupPerCore = 300
		cfg.Cache.ProbeOldest = true
		old, err := tdram.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(old.Cache.ReadQueueing.Value()/young.Cache.ReadQueueing.Value(), "oldest-vs-youngest-queueing")
	}
}

// BenchmarkAblationFlushBuffer measures the flush buffer's value.
func BenchmarkAblationFlushBuffer(b *testing.B) {
	wl := tdram.MustWorkload("is.D")
	for i := 0; i < b.N; i++ {
		full := benchRun(b, tdram.TDRAM, wl)
		cfg := tdram.NewSystemConfig(tdram.TDRAM, wl, benchCapacity)
		cfg.RequestsPerCore = benchRequests
		cfg.WarmupPerCore = 300
		cfg.Cache.FlushEntries = 1
		tiny, err := tdram.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tiny.Runtime)/float64(full.Runtime), "no-buffer-slowdown")
	}
}

// BenchmarkAblationPagePolicy measures close-page vs open-page rows.
func BenchmarkAblationPagePolicy(b *testing.B) {
	wl := tdram.MustWorkload("ft.C")
	for i := 0; i < b.N; i++ {
		closed := benchRun(b, tdram.CascadeLake, wl)
		cfg := tdram.NewSystemConfig(tdram.CascadeLake, wl, benchCapacity)
		cfg.RequestsPerCore = benchRequests
		cfg.WarmupPerCore = 300
		cfg.Cache.OpenPage = true
		open, err := tdram.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(closed.Runtime)/float64(open.Runtime), "openpage-speedup")
		hitFrac := 0.0
		if acts := open.CacheRowHits + open.CacheActivates; acts > 0 {
			hitFrac = float64(open.CacheRowHits) / float64(acts)
		}
		b.ReportMetric(hitFrac, "row-hit-frac")
	}
}

// BenchmarkAblationCondColumn measures the conditional column operation.
func BenchmarkAblationCondColumn(b *testing.B) {
	wl := tdram.MustWorkload("pr.25")
	for i := 0; i < b.N; i++ {
		td := benchRun(b, tdram.TDRAM, wl)
		nd := benchRun(b, tdram.NDC, wl)
		b.ReportMetric(nd.Energy.Cache.Col/td.Energy.Cache.Col, "ndc-colop-energy-ratio")
	}
}

func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func minF(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}

func maxF(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
