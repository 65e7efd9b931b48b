package experiments

import (
	"fmt"

	"tdram/internal/dramcache"
	"tdram/internal/fault"
	"tdram/internal/stats"
	"tdram/internal/system"
)

// resilience sweeps the deterministic fault injector over TDRAM: each
// workload runs fault-free, then at increasing per-access fault rates,
// and the table reports the runtime cost of the ECC/retry machinery plus
// the injector's accounting (corrected vs detected, retries, exhausted
// budgets, retired sets, bypassed demands). The sweep doubles as an
// end-to-end check that degraded runs still complete: the watchdog is
// armed whenever the scale arms it.
func resilience(sc Scale) study {
	subset := sc.studySubset(3)
	rates := []float64{1e-4, 1e-3, 1e-2}
	var injected []func(*system.Config)
	for _, rate := range rates {
		injected = append(injected, func(c *system.Config) {
			c.Cache.Fault = fault.Config{Rate: rate, Seed: sc.FaultSeed + 1}
		})
	}
	cells := sc.variants(subset, []dramcache.Design{dramcache.TDRAM}, injected...)
	return study{cells, func(outs outcomes) *Report {
		t := stats.NewTable("workload", "rate", "slowdown",
			"injected", "corrected", "detected", "retried", "exhausted", "sets-retired", "bypassed")
		var worst float64 = 1
		var retired uint64
		for _, wl := range subset {
			base := outs.next().res
			for _, rate := range rates {
				res := outs.next().res
				slow := float64(res.Runtime) / float64(base.Runtime)
				if slow > worst {
					worst = slow
				}
				f := res.Cache.Fault
				retired += f.SetsRetired
				t.AddRow(wl.Name, fmt.Sprintf("%g", rate), slow,
					f.Injected, f.Corrected, f.Detected, f.Retries, f.Exhausted, f.SetsRetired, f.Bypasses)
			}
		}
		return &Report{
			ID:    "resilience",
			Title: "fault-injection sweep: TDRAM under increasing per-access fault rates",
			Table: t,
			Summary: []string{
				fmt.Sprintf("worst-case slowdown %.3fx at rate %g; %d set(s) retired across the sweep",
					worst, rates[len(rates)-1], retired),
			},
			PaperClaim: "on-die SECDED + RS(6,4) tag ECC absorb transient faults with correction, not data loss (§III-C5)",
		}
	}}
}
