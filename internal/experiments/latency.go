package experiments

import (
	"fmt"

	"tdram/internal/dramcache"
	"tdram/internal/mem"
	"tdram/internal/sim"
	"tdram/internal/stats"
	"tdram/internal/system"
)

// latency runs every design with journey attribution enabled and reports
// where each request class spends its time: a per-(design, class)
// percentile table (p50/p90/p99/p99.9 from the log-bucketed histograms),
// a stacked phase-breakdown artifact (mean ns per journey phase), and a
// CDF artifact (one row per occupied histogram bucket). The per-class
// aggregates merge across a band-balanced workload subset in a fixed
// order, so the output is deterministic regardless of the -jobs setting.
func latency(sc Scale) study {
	subset := sc.studySubset(3)
	designs := MatrixDesigns()
	var cells []system.Config
	for _, d := range designs {
		for _, wl := range subset {
			cfg := sc.Config(d, wl)
			cfg.Obs.Journeys = true
			cells = append(cells, cfg)
		}
	}
	return study{cells, func(outs outcomes) *Report {
		// Merged per-(design, class) aggregates across the workload subset.
		type agg struct {
			hist   *stats.LogHist
			phases [mem.NumPhases]float64 // summed ns
			count  uint64
		}
		merged := make(map[dramcache.Design]*[mem.NumJourneyClasses]agg)
		var traceDropped, samplesDropped uint64
		for _, d := range designs {
			classes := &[mem.NumJourneyClasses]agg{}
			for i := range classes {
				classes[i].hist = stats.NewLogHist()
			}
			merged[d] = classes
			for range subset {
				o := outs.next().obs
				if o == nil {
					continue // a cell without an observer attributes nothing
				}
				for c := 0; c < mem.NumJourneyClasses; c++ {
					jc := mem.JourneyClass(c)
					classes[c].count += o.JourneyClassCount(jc)
					classes[c].hist.Merge(o.JourneyClassHist(jc))
					for p := 0; p < mem.NumPhases; p++ {
						classes[c].phases[p] += o.JourneyPhaseSum(jc, mem.Phase(p)).Nanoseconds()
					}
				}
				_, td := o.TraceEvents()
				traceDropped += td
				samplesDropped += o.SamplesDropped()
			}
		}

		pct := stats.NewTable("design", "class", "count", "mean-ns",
			"p50-ns", "p90-ns", "p99-ns", "p99.9-ns")
		phaseCols := []string{"design", "class"}
		for p := 0; p < mem.NumPhases; p++ {
			phaseCols = append(phaseCols, mem.Phase(p).String()+"-ns")
		}
		breakdown := stats.NewTable(phaseCols...)
		cdf := stats.NewTable("design", "class", "latency-ns", "cum-frac")
		for _, d := range designs {
			classes := merged[d]
			for c := 0; c < mem.NumJourneyClasses; c++ {
				a := &classes[c]
				if a.count == 0 {
					continue
				}
				name := mem.JourneyClass(c).String()
				h := a.hist
				pct.AddRow(d.String(), name, a.count, h.MeanNS(),
					h.PercentileNS(0.50), h.PercentileNS(0.90),
					h.PercentileNS(0.99), h.PercentileNS(0.999))
				row := []any{d.String(), name}
				for p := 0; p < mem.NumPhases; p++ {
					row = append(row, a.phases[p]/float64(a.count))
				}
				breakdown.AddRow(row...)
				var cum uint64
				h.Each(func(_, hi sim.Tick, count uint64) {
					cum += count
					cdf.AddRow(d.String(), name, hi.Nanoseconds(),
						float64(cum)/float64(h.N()))
				})
			}
		}

		summary := []string{
			fmt.Sprintf("%d designs x %d workloads, %d request classes attributed over %d phases",
				len(designs), len(subset), mem.NumJourneyClasses, mem.NumPhases),
		}
		if tdr := merged[dramcache.TDRAM]; tdr != nil && tdr[mem.ClassReadHit].count > 0 {
			summary = append(summary, fmt.Sprintf("TDRAM read-hit p50 %.0f ns, p99 %.0f ns over %d hits",
				tdr[mem.ClassReadHit].hist.PercentileNS(0.50),
				tdr[mem.ClassReadHit].hist.PercentileNS(0.99),
				tdr[mem.ClassReadHit].count))
		}
		if traceDropped > 0 || samplesDropped > 0 {
			summary = append(summary, fmt.Sprintf(
				"WARNING: observability data dropped (trace events %d, metric samples %d) — percentiles unaffected, traces/series incomplete",
				traceDropped, samplesDropped))
		}
		return &Report{
			ID:    "latency",
			Title: "per-request latency attribution: class percentiles, phase breakdown, CDFs",
			Table: pct,
			Artifacts: []Artifact{
				{Name: "breakdown", Title: "mean ns per journey phase (stacked breakdown)", Table: breakdown},
				{Name: "cdf", Title: "latency CDF (per occupied histogram bucket)", Table: cdf, CSVOnly: true},
			},
			Summary:    summary,
			PaperClaim: "TDRAM's single-access hit path yields the lowest loaded hit latency of the tag-check schemes (Fig. 9, §V-B)",
		}
	}}
}
