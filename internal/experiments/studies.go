package experiments

import (
	"fmt"
	"slices"

	"tdram/internal/dramcache"
	"tdram/internal/stats"
	"tdram/internal/system"
	"tdram/internal/workload"
)

// study is an experiment with a sweep of its own: the cells it needs, in
// a fixed order, and a render over their outcomes, which arrive in the
// same order.
type study struct {
	cells  []system.Config
	render func(outcomes) *Report
}

// outcomes is a study's outcomes, consumed in cell order.
type outcomes []outcome

func (o *outcomes) next() outcome {
	out := (*o)[0]
	*o = (*o)[1:]
	return out
}

// variants lists, workload-major, the scale's config of each (workload,
// design) pair followed by one copy per mod applied to it: a study's
// baselines, each with the variants it is compared against.
func (sc Scale) variants(wls []workload.Spec, designs []dramcache.Design, mods ...func(*system.Config)) []system.Config {
	var cells []system.Config
	for _, wl := range wls {
		for _, d := range designs {
			base := sc.Config(d, wl)
			cells = append(cells, base)
			for _, mod := range mods {
				cfg := base
				mod(&cfg)
				cells = append(cells, cfg)
			}
		}
	}
	return cells
}

// studySubset picks a small band-balanced workload set for the
// single-design studies.
func (sc Scale) studySubset(n int) []workload.Spec {
	if n >= len(sc.Workloads) {
		return sc.Workloads
	}
	// Alternate bands for balance.
	var low, high []workload.Spec
	for _, wl := range sc.Workloads {
		if wl.Band == workload.LowMiss {
			low = append(low, wl)
		} else {
			high = append(high, wl)
		}
	}
	var out []workload.Spec
	for i := 0; len(out) < n; i++ {
		if i < len(low) {
			out = append(out, low[i])
		}
		if len(out) < n && i < len(high) {
			out = append(out, high[i])
		}
		if i >= len(low) && i >= len(high) {
			break
		}
	}
	return out
}

// secVD reproduces the §V-D predictor study: a MAP-I predictor on the
// tags-with-data designs gains only a few percent.
func secVD(sc Scale) study {
	subset := sc.studySubset(6)
	designs := []dramcache.Design{dramcache.CascadeLake, dramcache.Alloy}
	cells := sc.variants(subset, designs, func(c *system.Config) { c.Cache.UsePredictor = true })
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "cl", "cl+map-i", "speedup", "alloy", "alloy+map-i", "speedup", "map-i-acc")
		var clGains, alGains []float64
		for _, wl := range subset {
			row := []any{wl.Name}
			var acc float64
			for _, d := range designs {
				base, pred := outs.next().res, outs.next().res
				gain := float64(base.Runtime) / float64(pred.Runtime)
				row = append(row, base.Runtime.Nanoseconds(), pred.Runtime.Nanoseconds(), gain)
				if d == dramcache.CascadeLake {
					clGains = append(clGains, gain)
				} else {
					alGains = append(alGains, gain)
				}
				acc = pred.Cache.PredictorAccuracy
			}
			row = append(row, acc)
			t.AddRow(row...)
		}
		return &Report{
			ID:    "secVD",
			Title: "MAP-I predictor impact (runtime ns without/with, and speedup)",
			Table: t,
			Summary: []string{
				fmt.Sprintf("geomean predictor speedup: cascade-lake %.3fx, alloy %.3fx",
					stats.GeoMean(clGains), stats.GeoMean(alGains)),
			},
			PaperClaim: "predictors have a minor impact: 1.03-1.04x overall",
		}
	}}
}

// prefetcher reproduces the second half of §V-D: a stride prefetcher at
// the DRAM cache gains little — prefetch fills interfere with demands
// and consume bandwidth.
func prefetcher(sc Scale) study {
	subset := sc.studySubset(6)
	designs := []dramcache.Design{dramcache.CascadeLake, dramcache.TDRAM}
	cells := sc.variants(subset, designs, func(c *system.Config) {
		c.Cache.UsePrefetcher = true
	})
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "design", "speedup", "issued", "useful", "accuracy", "bloat-delta")
		var gains []float64
		for _, wl := range subset {
			for _, d := range designs {
				base, pf := outs.next().res, outs.next().res
				gain := float64(base.Runtime) / float64(pf.Runtime)
				gains = append(gains, gain)
				acc := 0.0
				if pf.Cache.PrefetchesIssued > 0 {
					acc = float64(pf.Cache.PrefetchesUseful) / float64(pf.Cache.PrefetchesIssued)
				}
				t.AddRow(wl.Name, d.String(), gain, pf.Cache.PrefetchesIssued,
					pf.Cache.PrefetchesUseful, acc, pf.Cache.BloatFactor()-base.Cache.BloatFactor())
			}
		}
		return &Report{
			ID:    "prefetcher",
			Title: "Stride prefetcher at the DRAM cache (speedup vs no prefetcher)",
			Table: t,
			Summary: []string{
				fmt.Sprintf("geomean prefetcher speedup: %.3fx (bandwidth bloat rises with every issued prefetch)",
					stats.GeoMean(gains)),
			},
			PaperClaim: "prefetchers show incremental gains: interference with demands, extra bandwidth, tail latency",
		}
	}}
}

// secVE reproduces the §V-E flush-buffer sensitivity sweep.
func secVE(sc Scale) study {
	// Write-heavy high-miss workloads exercise write-miss-dirty.
	subset := sc.studySubset(8)
	sizes := []int{8, 16, 32, 64}
	var cells []system.Config
	for _, wl := range subset {
		for _, size := range sizes {
			cfg := sc.Config(dramcache.TDRAM, wl)
			cfg.Cache.FlushEntries = size
			cells = append(cells, cfg)
		}
	}
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "size", "avg-occupancy", "max-occupancy", "stalls",
			"drain-refresh", "drain-idle-slot", "drain-explicit")
		worstMax := 0
		stallsAt16 := uint64(0)
		for _, wl := range subset {
			for _, size := range sizes {
				st := outs.next().res.Cache
				t.AddRow(wl.Name, size, st.FlushOccupancy.Value(), st.FlushMax, st.FlushStalls,
					st.FlushDrainRefresh, st.FlushDrainIdleSlot, st.FlushDrainExplicit)
				if size == 16 {
					if st.FlushMax > worstMax {
						worstMax = st.FlushMax
					}
					stallsAt16 += st.FlushStalls
				}
			}
		}
		return &Report{
			ID:    "secVE",
			Title: "Flush buffer size sensitivity (TDRAM)",
			Table: t,
			Summary: []string{
				fmt.Sprintf("at 16 entries: max occupancy %d, total forced stalls %d", worstMax, stallsAt16),
			},
			PaperClaim: "16 entries avoid stalls; average occupancy ~5, maximum ~12; miss-clean slots and refresh windows do the draining",
		}
	}}
}

// secVF reproduces the §V-F set-associativity study.
func secVF(sc Scale) study {
	subset := sc.studySubset(6)
	ways := []int{1, 2, 4, 8, 16}
	var cells []system.Config
	for _, wl := range subset {
		cells = append(cells, sc.Config(dramcache.NoCache, wl))
		for _, w := range ways {
			cfg := sc.Config(dramcache.TDRAM, wl)
			cfg.Cache.Ways = w
			cells = append(cells, cfg)
		}
	}
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "ways", "speedup-vs-no-cache", "miss-ratio")
		worst := 0.0
		for _, wl := range subset {
			base := outs.next().res
			var speedups []float64
			for _, w := range ways {
				res := outs.next().res
				sp := float64(base.Runtime) / float64(res.Runtime)
				speedups = append(speedups, sp)
				t.AddRow(wl.Name, w, sp, res.Cache.Outcomes.MissRatio())
			}
			worst = max(worst, slices.Max(speedups)/slices.Min(speedups))
		}
		return &Report{
			ID:    "secVF",
			Title: "Direct-mapped vs set-associative TDRAM (speedup over main-memory-only)",
			Table: t,
			Summary: []string{
				fmt.Sprintf("worst-case speedup spread across 1..16 ways: %.3fx (1.0 = identical)", worst),
			},
			PaperClaim: "direct-mapped and 2/4/8/16-way caches show similar speedups; HPC workloads have negligible conflict misses",
		}
	}}
}

// ablationProbing quantifies early tag probing: TDRAM without probing
// should behave like NDC (§V-A).
func ablationProbing(sc Scale) study {
	subset := sc.studySubset(6)
	var cells []system.Config
	for _, wl := range subset {
		off := sc.Config(dramcache.TDRAM, wl)
		off.Cache.ProbeEnabled = false
		cells = append(cells, sc.Config(dramcache.TDRAM, wl), off, sc.Config(dramcache.NDC, wl))
	}
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "tagcheck-probe", "tagcheck-noprobe", "tagcheck-ndc",
			"runtime-probe", "runtime-noprobe")
		var gains []float64
		for _, wl := range subset {
			on, off, ndc := outs.next().res, outs.next().res, outs.next().res
			t.AddRow(wl.Name, on.Cache.TagCheck.Value(), off.Cache.TagCheck.Value(),
				ndc.Cache.TagCheck.Value(), on.Runtime.Nanoseconds(), off.Runtime.Nanoseconds())
			if on.Cache.TagCheck.Value() > 0 {
				gains = append(gains, off.Cache.TagCheck.Value()/on.Cache.TagCheck.Value())
			}
		}
		return &Report{
			ID:    "abl-probing",
			Title: "Ablation: early tag probing on/off",
			Table: t,
			Summary: []string{
				fmt.Sprintf("probing improves tag-check latency by geomean %.2fx; TDRAM-without-probing tracks NDC",
					stats.GeoMean(gains)),
			},
			PaperClaim: "TDRAM without early tag probing performs similarly to NDC; probing improves tag checks up to 70% on large high-miss workloads",
		}
	}}
}

// ablationProbePolicy compares the paper's youngest-first probe selection
// with oldest-first (§III-E2).
func ablationProbePolicy(sc Scale) study {
	subset := sc.studySubset(6)
	cells := sc.variants(subset, []dramcache.Design{dramcache.TDRAM},
		func(c *system.Config) { c.Cache.ProbeOldest = true })
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "queueing-youngest", "queueing-oldest", "runtime-youngest", "runtime-oldest")
		for _, wl := range subset {
			young, old := outs.next().res, outs.next().res
			t.AddRow(wl.Name, young.Cache.ReadQueueing.Value(), old.Cache.ReadQueueing.Value(),
				young.Runtime.Nanoseconds(), old.Runtime.Nanoseconds())
		}
		return &Report{
			ID:         "abl-probe-policy",
			Title:      "Ablation: probe selection policy (youngest vs oldest)",
			Table:      t,
			PaperClaim: "the controller picks the youngest request to minimize average queueing delay",
		}
	}}
}

// ablationFlushBuffer shrinks the flush buffer to one entry, forcing
// explicit drains (with their DQ turnarounds) on nearly every
// write-miss-dirty — approximating a TDRAM without the buffer.
func ablationFlushBuffer(sc Scale) study {
	subset := sc.studySubset(6)
	cells := sc.variants(subset, []dramcache.Design{dramcache.TDRAM},
		func(c *system.Config) { c.Cache.FlushEntries = 1 })
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "runtime-16", "runtime-1", "slowdown", "stalls-1")
		for _, wl := range subset {
			full, tiny := outs.next().res, outs.next().res
			t.AddRow(wl.Name, full.Runtime.Nanoseconds(), tiny.Runtime.Nanoseconds(),
				float64(tiny.Runtime)/float64(full.Runtime), tiny.Cache.FlushStalls)
		}
		return &Report{
			ID:         "abl-flush",
			Title:      "Ablation: flush buffer 16 entries vs 1 entry (forced explicit drains)",
			Table:      t,
			PaperClaim: "the flush buffer eliminates data-bus turnarounds on write-miss-dirty; a modest 16 entries suffices",
		}
	}}
}

// ablationPagePolicy compares the paper's close-page policy against an
// open-page row-buffer policy for the tags-with-data designs. Scan-heavy
// workloads have row locality an open-page Cascade Lake can harvest;
// TDRAM's lockstep commands are defined with auto-precharge, so it runs
// close-page by construction.
func ablationPagePolicy(sc Scale) study {
	subset := sc.studySubset(6)
	designs := []dramcache.Design{dramcache.CascadeLake, dramcache.Alloy}
	cells := sc.variants(subset, designs, func(c *system.Config) { c.Cache.OpenPage = true })
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "design", "runtime-close", "runtime-open", "open-speedup", "row-hit-frac")
		for _, wl := range subset {
			for _, d := range designs {
				closed, open := outs.next().res, outs.next().res
				hitFrac := 0.0
				if acts := open.CacheRowHits + open.CacheActivates; acts > 0 {
					hitFrac = float64(open.CacheRowHits) / float64(acts)
				}
				t.AddRow(wl.Name, d.String(), closed.Runtime.Nanoseconds(), open.Runtime.Nanoseconds(),
					float64(closed.Runtime)/float64(open.Runtime), hitFrac)
			}
		}
		return &Report{
			ID:         "abl-pagepolicy",
			Title:      "Ablation: close-page (paper) vs open-page row policy for tags-with-data designs",
			Table:      t,
			PaperClaim: "the paper's devices run close-page with auto-precharge; open-page is the classic alternative row policy",
		}
	}}
}

// ablationCondColumn quantifies the conditional column operation's
// energy effect by comparing TDRAM against NDC (which always performs the
// column op) on miss-heavy workloads.
func ablationCondColumn(sc Scale) study {
	subset := sc.studySubset(6)
	cells := sc.variants(subset, []dramcache.Design{dramcache.TDRAM, dramcache.NDC})
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "tdram-colJ", "ndc-colJ", "ndc-extra", "tdram-totalJ", "ndc-totalJ")
		for _, wl := range subset {
			td, nd := outs.next().res, outs.next().res
			extra := 0.0
			if td.Energy.Cache.Col > 0 {
				extra = nd.Energy.Cache.Col/td.Energy.Cache.Col - 1
			}
			t.AddRow(wl.Name, td.Energy.Cache.Col, nd.Energy.Cache.Col, extra,
				td.Energy.Cache.Total(), nd.Energy.Cache.Total())
		}
		return &Report{
			ID:         "abl-condcol",
			Title:      "Ablation: conditional column operation (TDRAM skips, NDC always performs)",
			Table:      t,
			PaperClaim: "NDC's extra column operations on miss-cleans add slightly to energy; data transfer dominates",
		}
	}}
}
