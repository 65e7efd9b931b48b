// Package tdram is a cycle-level reproduction of "Efficient Caching with
// A Tag-enhanced DRAM" (HPCA 2025): a discrete-event memory-system
// simulator with the paper's TDRAM device — on-die tag mats, in-DRAM tag
// comparison with conditional column operation, a Hit-Miss bus, a flush
// buffer, and early tag probing — alongside the designs it is evaluated
// against (Cascade Lake-style tags-in-ECC, Alloy, BEAR, NDC, and an
// ideal zero-latency-tag cache), an 8-core front end with private SRAM
// caches, a DDR5 backing store, the 28 NPB/GAPBS workload stand-ins,
// and a harness regenerating every table and figure of the paper's
// evaluation.
//
// The package is a thin facade over the internal packages; everything a
// downstream user needs is re-exported here.
//
// Quick start:
//
//	cfg := tdram.NewSystemConfig(tdram.TDRAM, tdram.MustWorkload("ft.C"), 16<<20)
//	res, err := tdram.Run(cfg)
//	// res.Runtime, res.Cache.TagCheck, res.Cache.Outcomes, res.Energy ...
package tdram

import (
	"tdram/internal/dramcache"
	"tdram/internal/experiments"
	"tdram/internal/fault"
	"tdram/internal/obs"
	"tdram/internal/sim"
	"tdram/internal/system"
	"tdram/internal/workload"
)

// Design identifies one of the modeled DRAM-cache designs.
type Design = dramcache.Design

// The modeled designs (§IV-A).
const (
	// CascadeLake models Intel's commercial tags-in-ECC DRAM cache, the
	// paper's evaluation baseline.
	CascadeLake = dramcache.CascadeLake
	// Alloy streams 80 B tag-and-data units.
	Alloy = dramcache.Alloy
	// BEAR adds bandwidth-bloat mitigations to Alloy.
	BEAR = dramcache.BEAR
	// NDC stores tags in DRAM with compare tied to the column operation.
	NDC = dramcache.NDC
	// TDRAM is the paper's contribution.
	TDRAM = dramcache.TDRAM
	// Ideal is the zero-latency-tag upper bound.
	Ideal = dramcache.Ideal
	// NoCache is the main-memory-only reference system.
	NoCache = dramcache.NoCache
)

// Designs lists the cache designs in the paper's comparison order.
func Designs() []Design { return dramcache.Designs() }

// ParseDesign resolves a design by name ("tdram", "cascade-lake", ...).
func ParseDesign(name string) (Design, error) { return dramcache.ParseDesign(name) }

// CacheConfig parameterizes the DRAM-cache controller and device.
type CacheConfig = dramcache.Config

// DefaultCacheConfig returns the paper's configuration of a design.
func DefaultCacheConfig(d Design, capacityBytes uint64) CacheConfig {
	return dramcache.DefaultConfig(d, capacityBytes)
}

// Workload is a named synthetic stand-in for one of the paper's NPB or
// GAPBS benchmarks.
type Workload = workload.Spec

// Workloads returns the full 28-workload roster.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks a workload up ("ft.C", "pr.25", ...).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// MustWorkload is WorkloadByName, panicking on unknown names; convenient
// in examples and tests.
func MustWorkload(name string) Workload {
	w, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// RepresentativeWorkloads returns the band-balanced quick subset.
func RepresentativeWorkloads() []Workload { return workload.Representative() }

// SystemConfig describes one full-system run.
type SystemConfig = system.Config

// Result carries one run's measurements.
type Result = system.Result

// Tick is simulated time in picoseconds.
type Tick = sim.Tick

// NewSystemConfig builds the paper's 8-core topology around the given
// design, workload and cache capacity.
func NewSystemConfig(d Design, wl Workload, cacheBytes uint64) SystemConfig {
	return system.DefaultConfig(d, wl, cacheBytes)
}

// Run executes one full-system simulation.
func Run(cfg SystemConfig) (*Result, error) { return system.Run(cfg) }

// System is a fully wired machine; use it instead of Run when the run's
// observer outputs (traces, metrics) are needed afterwards.
type System = system.System

// NewSystem builds a machine without running it.
func NewSystem(cfg SystemConfig) (*System, error) { return system.New(cfg) }

// ObsConfig selects observability outputs: Perfetto command tracing
// and/or periodic metrics sampling (SystemConfig.Obs).
type ObsConfig = obs.Config

// Observer is the attached observability subsystem of a running system;
// it writes Chrome/Perfetto traces and sampled time series.
type Observer = obs.Observer

// ParseTick parses a duration like "500ps", "2.5ns" or "1us" into
// simulated ticks (for ObsConfig.MetricsInterval and similar knobs).
func ParseTick(s string) (Tick, error) { return sim.ParseTick(s) }

// Scale selects the reproduction effort (Quick or Full).
type Scale = experiments.Scale

// QuickScale is the band-balanced six-workload subset.
func QuickScale() Scale { return experiments.Quick() }

// FullScale covers all 28 workloads.
func FullScale() Scale { return experiments.Full() }

// Matrix is the shared set of (design x workload) runs the figures
// derive from.
type Matrix = experiments.Matrix

// Report is one regenerated table or figure.
type Report = experiments.Report

// MatrixOptions configures a sweep: the worker-pool width (Jobs), the
// single-threaded, deterministically ordered progress callback, and
// cancellation.
type MatrixOptions = experiments.MatrixOptions

// CellError records the failure of one cell; a partially failed sweep
// returns an errors.Join of these.
type CellError = experiments.CellError

// RunMatrixOpts executes every (design, workload) cell of the evaluation
// on the cell runner, fanning cells out across opts.Jobs workers.
// Results are bit-identical to a serial sweep. On per-cell failures it
// returns the partial Matrix of completed cells plus the joined
// CellErrors.
func RunMatrixOpts(sc Scale, opts MatrixOptions) (*Matrix, error) {
	return experiments.RunMatrixOpts(sc, opts)
}

// Reproduce regenerates the named experiments (MatrixExperiments,
// StudyExperiments) in one sweep: the matrix and every study's cells
// run together, each distinct configuration once, forked from shared
// warmup images. It returns one report per id (nil for a study whose
// cells failed), the matrix (nil when no figure is named) and the
// joined CellErrors.
func Reproduce(sc Scale, ids []string, opts MatrixOptions) ([]*Report, *Matrix, error) {
	return experiments.Reproduce(sc, ids, opts)
}

// MatrixExperiments lists the matrix-derived experiment ids (Figs. 1-3,
// 9-13, Table IV) in paper order.
func MatrixExperiments() []string { return experiments.MatrixExperiments() }

// StudyExperiments lists the study ids (§V-D/E/F, the TDRAM ablations,
// resilience, latency attribution) in report order.
func StudyExperiments() []string { return experiments.StudyExperiments() }

// ReproduceFigures regenerates every matrix-derived artifact (Figs. 1-3,
// 9-13 and Table IV) in paper order.
func ReproduceFigures(m *Matrix) []*Report { return experiments.AllFromMatrix(m) }

// Individual matrix-derived experiments.
var (
	Fig1  = experiments.Fig1
	Fig2  = experiments.Fig2
	Fig3  = experiments.Fig3
	Fig9  = experiments.Fig9
	Fig10 = experiments.Fig10
	Fig11 = experiments.Fig11
	Fig12 = experiments.Fig12
	Tab4  = experiments.Tab4
	Fig13 = experiments.Fig13
)

// FaultConfig parameterizes deterministic fault injection
// (CacheConfig.Fault); the zero value disables it.
type FaultConfig = fault.Config

// FaultCounters aggregates an injected run's fault accounting
// (Result.Cache.Fault).
type FaultCounters = fault.Counters
