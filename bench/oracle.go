package main

import (
	"fmt"
	"slices"
	"strings"

	"tdram/internal/dramcache"
	"tdram/internal/experiments"
	"tdram/internal/stats"
	"tdram/internal/system"
	"tdram/internal/workload"
)

// figureRows indexes the per-workload table rows of a report text by
// "<report id> <workload>", each row split into its fields. Column
// widths depend on which rows a table holds, so rows compare by field.
func figureRows(text string) map[string][]string {
	known := make(map[string]bool)
	for _, n := range workload.Names() {
		known[n] = true
	}
	rows := make(map[string][]string)
	id := ""
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
			continue
		}
		if f := strings.Fields(line); len(f) > 1 && known[f[0]] {
			rows[id+" "+f[0]] = f
		}
	}
	return rows
}

// checkRows compares every workload row of the rendered figures with the
// same row of the oracle. It returns the rows checked and how many
// differ or are missing from the oracle.
func checkRows(oracle map[string][]string, rendered string) (checked, bad int) {
	got := figureRows(rendered)
	for _, k := range stats.SortedKeys(got) {
		checked++
		if !slices.Equal(oracle[k], got[k]) {
			bad++
		}
	}
	return checked, bad
}

// checkFidelity recomputes the paper-fidelity headlines from the
// matrix's Result fields — TDRAM's Fig. 11 speedup and Fig. 9 tag-check
// speedup over Cascade Lake, and its Fig. 13 energy saving — and checks
// that the rendered summaries state the same values. On the full sweep
// they read 1.10x, 2.28x and 14%.
func checkFidelity(mx *experiments.Matrix, reports []*experiments.Report) (checked, bad int) {
	wls := mx.CompleteWorkloads()
	if len(wls) == 0 {
		return 0, 0
	}
	geo := func(f func(td, cl *system.Result) float64) float64 {
		var vs []float64
		for _, wl := range wls {
			vs = append(vs, f(mx.Get(dramcache.TDRAM, wl.Name), mx.Get(dramcache.CascadeLake, wl.Name)))
		}
		return stats.GeoMean(vs)
	}
	want := map[string]string{
		"fig11": fmt.Sprintf("%.2fx vs cascade-lake", geo(func(td, cl *system.Result) float64 {
			return float64(cl.Runtime) / float64(td.Runtime)
		})),
		"fig9": fmt.Sprintf("%.2fx vs cascade-lake", geo(func(td, cl *system.Result) float64 {
			if td.Cache.TagCheck.Value() == 0 {
				return 1
			}
			return cl.Cache.TagCheck.Value() / td.Cache.TagCheck.Value()
		})),
		"fig13": fmt.Sprintf("(savings %.0f%%)", (1-geo(func(td, cl *system.Result) float64 {
			return td.Energy.Cache.Total() / cl.Energy.Cache.Total()
		}))*100),
	}
	for _, r := range reports {
		if w, ok := want[r.ID]; ok {
			checked++
			if !strings.Contains(strings.Join(r.Summary, "\n"), w) {
				bad++
			}
		}
	}
	return checked, bad
}
