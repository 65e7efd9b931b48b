// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): the access breakdown (Fig. 1), queueing delays
// (Figs. 2, 10), bandwidth decomposition (Fig. 3), tag-check latency
// (Fig. 9), speedups (Figs. 11, 12), bandwidth bloat (Table IV), relative
// energy (Fig. 13), and the §V-D/E/F studies, plus ablation sweeps for
// TDRAM's design choices. Figures 1–3 and 9–13 all derive from one
// matrix of runs (designs x workloads), computed once and shared; each
// study is a list of cells of its own plus a render over their results.
// Reproduce sweeps the matrix and the studies on one cell runner, which
// simulates each distinct configuration once.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"tdram/internal/dramcache"
	"tdram/internal/fault"
	"tdram/internal/obs"
	"tdram/internal/sim"
	"tdram/internal/stats"
	"tdram/internal/system"
	"tdram/internal/workload"
)

// Scale selects how much work a reproduction run does. Ratios (miss
// bands, speedups, bloat) are scale-invariant; bigger scales tighten the
// averages.
type Scale struct {
	Name            string
	CacheBytes      uint64
	RequestsPerCore int
	WarmupPerCore   int
	Workloads       []workload.Spec

	// FaultRate, when positive, enables deterministic fault injection
	// (internal/fault) at that per-access probability, seeded by
	// FaultSeed.
	FaultRate float64
	FaultSeed uint64

	// Watchdog arms the no-progress watchdog (zero disables). The default
	// scales arm it: the watchdog only observes, so results are
	// bit-identical, and a wedged cell aborts with a dump instead of
	// hanging the whole sweep.
	Watchdog sim.Tick

	// FlightDepth, when positive, arms the flight recorder at that ring
	// depth in every run the scale configures (zero leaves it off). A
	// watchdog trip or uncorrectable fault then dumps the last journeys
	// and device commands.
	FlightDepth int

	// Obs is installed into every cell's system config. Observability is
	// purely observational — results are bit-identical with it on or off
	// — so a sweep can arm the sampler (tdserve streams its OnSample rows
	// as job progress) without perturbing what the matrix computes.
	// FlightDepth, when set, still overrides the flight-recorder depth.
	Obs obs.Config
}

// defaultWatchdog is the window the stock scales arm: far beyond any
// legitimate retirement gap at these request counts.
const defaultWatchdog = 10 * sim.Millisecond

// Full covers all 28 workloads at the default capacity.
func Full() Scale {
	return Scale{
		Name:            "full",
		CacheBytes:      16 << 20,
		RequestsPerCore: 10000,
		WarmupPerCore:   1000,
		Workloads:       workload.All(),
		Watchdog:        defaultWatchdog,
	}
}

// Quick covers the band-balanced representative subset; it is what the
// testing.B benchmarks run.
func Quick() Scale {
	return Scale{
		Name:            "quick",
		CacheBytes:      8 << 20,
		RequestsPerCore: 4000,
		WarmupPerCore:   500,
		Workloads:       workload.Representative(),
		Watchdog:        defaultWatchdog,
	}
}

// Config builds the system configuration for one (design, workload) cell.
func (sc Scale) Config(d dramcache.Design, wl workload.Spec) system.Config {
	cfg := system.DefaultConfig(d, wl, sc.CacheBytes)
	cfg.RequestsPerCore = sc.RequestsPerCore
	cfg.WarmupPerCore = sc.WarmupPerCore
	cfg.Watchdog = sc.Watchdog
	cfg.Obs = sc.Obs
	if sc.FlightDepth > 0 {
		cfg.Obs.FlightRecorder = sc.FlightDepth
	}
	if sc.FaultRate > 0 && d != dramcache.NoCache {
		cfg.Cache.Fault = fault.Config{Rate: sc.FaultRate, Seed: sc.FaultSeed}
	}
	return cfg
}

// Key addresses one cell of the run matrix.
type Key struct {
	Design   dramcache.Design
	Workload string
}

// Matrix holds the shared runs every figure derives from.
type Matrix struct {
	Scale   Scale
	Results map[Key]*system.Result
}

// MatrixDesigns is the set of configurations the matrix runs per
// workload: the six cache designs plus the main-memory-only system.
func MatrixDesigns() []dramcache.Design {
	return append(dramcache.Designs(), dramcache.NoCache)
}

// Get returns one cell (nil when the cell failed or never ran).
func (m *Matrix) Get(d dramcache.Design, wl string) *system.Result {
	return m.Results[Key{d, wl}]
}

// CompleteWorkloads returns, in Scale order, the workloads for which
// every matrix design has a result. The figure/table generators iterate
// these so a partially failed sweep still renders every finished
// workload instead of dereferencing a missing cell.
func (m *Matrix) CompleteWorkloads() []workload.Spec {
	var out []workload.Spec
	for _, wl := range m.Scale.Workloads {
		complete := true
		for _, d := range MatrixDesigns() {
			if m.Get(d, wl.Name) == nil {
				complete = false
				break
			}
		}
		if complete {
			out = append(out, wl)
		}
	}
	return out
}

// MissingCells lists, in sweep order, the (design, workload) cells that
// have no result.
func (m *Matrix) MissingCells() []Key {
	var missing []Key
	for _, c := range sweepCells(m.Scale) {
		if m.Get(c.d, c.wl.Name) == nil {
			missing = append(missing, Key{c.d, c.wl.Name})
		}
	}
	return missing
}

// incompleteNote names the workloads a report skipped because one of
// their cells failed; empty when the matrix is complete.
func (m *Matrix) incompleteNote() string {
	complete := make(map[string]bool)
	for _, wl := range m.CompleteWorkloads() {
		complete[wl.Name] = true
	}
	var skipped []string
	for _, wl := range m.Scale.Workloads {
		if !complete[wl.Name] {
			skipped = append(skipped, wl.Name)
		}
	}
	if len(skipped) == 0 {
		return ""
	}
	return fmt.Sprintf("SKIPPED %d workload(s) with failed cells: %s",
		len(skipped), strings.Join(skipped, ", "))
}

// report finalizes a figure/table: on a partial matrix it appends the
// skipped-workload note to the summary.
func (m *Matrix) report(r *Report) *Report {
	if note := m.incompleteNote(); note != "" {
		r.Summary = append(r.Summary, note)
	}
	return r
}

// Report is one regenerated table or figure.
type Report struct {
	ID         string // experiment id from DESIGN.md (fig9, tab4, ...)
	Title      string
	Table      fmt.Stringer
	Summary    []string // the headline numbers, one per line
	PaperClaim string   // what the paper reports, for comparison

	// Artifacts are companion tables (CDFs, breakdowns) written as
	// separate CSV files by tdbench's -csv mode and appended, titled,
	// to the rendered report.
	Artifacts []Artifact
}

// Artifact is one companion table of a report.
type Artifact struct {
	Name  string // file suffix: <report-id>_<name>.csv
	Title string
	Table fmt.Stringer

	// CSVOnly keeps bulk tables (per-bucket CDFs) out of the rendered
	// report; they still reach disk through tdbench -csv.
	CSVOnly bool
}

// CSV renders an artifact's table as CSV (empty when unsupported).
func (a *Artifact) CSV() string {
	if c, ok := a.Table.(interface{ CSV() string }); ok {
		return c.CSV()
	}
	return ""
}

// CSV renders the report's table as CSV (empty when the table does not
// support it).
func (r *Report) CSV() string {
	if c, ok := r.Table.(interface{ CSV() string }); ok {
		return c.CSV()
	}
	return ""
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	for _, a := range r.Artifacts {
		if a.CSVOnly {
			continue
		}
		fmt.Fprintf(&b, "-- %s --\n", a.Title)
		b.WriteString(a.Table.String())
	}
	for _, s := range r.Summary {
		fmt.Fprintf(&b, "%s\n", s)
	}
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	return b.String()
}

// experiment is one regenerated report: a figure derived from the
// matrix, or a study with a cell list of its own.
type experiment struct {
	id     string
	figure func(*Matrix) *Report
	study  func(Scale) study
}

// registry lists every experiment in report order: the matrix figures
// in paper order, then the studies.
var registry = []experiment{
	{id: "fig1", figure: Fig1},
	{id: "fig2", figure: Fig2},
	{id: "fig3", figure: Fig3},
	{id: "fig9", figure: Fig9},
	{id: "fig10", figure: Fig10},
	{id: "fig11", figure: Fig11},
	{id: "fig12", figure: Fig12},
	{id: "tab4", figure: Tab4},
	{id: "fig13", figure: Fig13},
	{id: "predictor", study: secVD},
	{id: "prefetcher", study: prefetcher},
	{id: "flushbuf", study: secVE},
	{id: "setassoc", study: secVF},
	{id: "abl-probing", study: ablationProbing},
	{id: "abl-probe-policy", study: ablationProbePolicy},
	{id: "abl-flush", study: ablationFlushBuffer},
	{id: "abl-condcol", study: ablationCondColumn},
	{id: "abl-pagepolicy", study: ablationPagePolicy},
	{id: "resilience", study: resilience},
	{id: "latency", study: latency},
}

func experimentIDs(figures bool) []string {
	var ids []string
	for _, e := range registry {
		if (e.figure != nil) == figures {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// MatrixExperiments lists the ids of the matrix-derived experiments
// (Figs. 1-3, 9-13, Table IV) in paper order.
func MatrixExperiments() []string { return experimentIDs(true) }

// StudyExperiments lists the ids of the studies (§V-D/E/F, the TDRAM
// ablations, resilience and latency) in report order.
func StudyExperiments() []string { return experimentIDs(false) }

// AllFromMatrix regenerates every matrix-derived artifact in paper order.
func AllFromMatrix(m *Matrix) []*Report {
	var reps []*Report
	for _, e := range registry {
		if e.figure != nil {
			reps = append(reps, e.figure(m))
		}
	}
	return reps
}

// Reproduce regenerates the experiments named by ids in one sweep of the
// cell runner: the matrix, when a matrix experiment is named, and every
// named study's cells run together, each distinct config once, under
// opts (whose Filter and OnCell apply to the matrix cells). It returns
// one report per id, in order — nil for a study one of whose cells
// failed — the matrix (nil when no matrix experiment is named), and one
// CellError per failed cell, joined. Matrix reports render over the
// completed workloads of a partial matrix. An unknown id fails before
// anything runs.
func Reproduce(sc Scale, ids []string, opts MatrixOptions) ([]*Report, *Matrix, error) {
	exps := make([]experiment, len(ids))
	var studies []study
	withMatrix := false
	for i, id := range ids {
		j := slices.IndexFunc(registry, func(e experiment) bool { return e.id == id })
		if j < 0 {
			return nil, nil, fmt.Errorf("unknown experiment %q (known: %s)", id,
				strings.Join(append(MatrixExperiments(), StudyExperiments()...), ","))
		}
		exps[i] = registry[j]
		if exps[i].figure != nil {
			withMatrix = true
		} else {
			studies = append(studies, exps[i].study(sc))
		}
	}
	m, studyReps, err := sc.run(withMatrix, studies, opts)
	reps := make([]*Report, len(ids))
	for i, e := range exps {
		if e.figure != nil {
			reps[i] = e.figure(m)
		} else {
			reps[i], studyReps = studyReps[0], studyReps[1:]
		}
	}
	if !withMatrix {
		m = nil
	}
	return reps, m, err
}

// geoOver computes the geometric mean of f over the workloads whose
// cells all completed; failed workloads are skipped (and reported by the
// figures' incomplete note) instead of handing f a nil cell.
func (m *Matrix) geoOver(f func(wl string) float64) float64 {
	var vs []float64
	for _, wl := range m.CompleteWorkloads() {
		vs = append(vs, f(wl.Name))
	}
	return stats.GeoMean(vs)
}
