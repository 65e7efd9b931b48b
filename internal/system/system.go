// Package system wires the full modeled machine together: eight
// request-generating cores, each with a private L1/L2 SRAM stack, a
// shared DRAM-cache controller in one of the paper's six designs (or no
// cache at all), and the DDR5 backing store. It runs a warmup phase —
// the stand-in for the paper's LoopPoint checkpoints with warmed caches
// — followed by a measured phase whose duration is the workload runtime
// the speedup figures compare.
package system

import (
	"fmt"

	"tdram/internal/backing"
	"tdram/internal/dram"
	"tdram/internal/dramcache"
	"tdram/internal/energy"
	"tdram/internal/obs"
	"tdram/internal/sim"
	"tdram/internal/workload"
)

// Config describes one simulated run.
type Config struct {
	Workload workload.Spec
	Cache    dramcache.Config

	// Obs selects observability outputs (tracing, metrics sampling). The
	// zero value runs without an observer: no overhead beyond one nil
	// check per hook site.
	Obs obs.Config

	Cores          int // Table III: 8
	MaxOutstanding int // per-core in-flight DRAM-cache reads (MSHR-style MLP)

	// L1Bytes/L2Bytes size the per-core SRAM stack. The defaults are the
	// Table III sizes scaled down along with the DRAM cache capacity, so
	// the SRAM levels absorb a proportionate share of reuse.
	L1Bytes, L2Bytes uint64

	// WarmupPerCore accesses are simulated with timing but excluded from
	// measurement, warming queues and device state. They start from the
	// functionally warmed caches of a WarmupImage (see BuildWarmupImage).
	WarmupPerCore int
	// RequestsPerCore accesses are measured.
	RequestsPerCore int

	// Watchdog, when positive, arms a no-progress watchdog on the event
	// kernel: a run that stops retiring requests for this much simulated
	// time (or livelocks within one tick) aborts with a diagnostic dump
	// instead of hanging. Zero disables it. The watchdog only observes —
	// an armed run's results are bit-identical to an unarmed one.
	Watchdog sim.Tick

	Seed uint64
}

// DefaultConfig sizes a run for the given design, workload and cache
// capacity with the paper's topology.
func DefaultConfig(d dramcache.Design, wl workload.Spec, cacheBytes uint64) Config {
	return Config{
		Workload:        wl,
		Cache:           dramcache.DefaultConfig(d, cacheBytes),
		Cores:           8,
		MaxOutstanding:  8,
		L1Bytes:         4 << 10,
		L2Bytes:         64 << 10,
		WarmupPerCore:   1000,
		RequestsPerCore: 12000,
		Seed:            1,
	}
}

// Validate rejects inconsistent run configurations.
func (c *Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("system: cores = %d", c.Cores)
	}
	if c.MaxOutstanding <= 0 {
		return fmt.Errorf("system: max outstanding = %d", c.MaxOutstanding)
	}
	if c.RequestsPerCore <= 0 {
		return fmt.Errorf("system: requests per core = %d", c.RequestsPerCore)
	}
	return c.Cache.Validate()
}

// EnergyReport carries the rendered energy model outputs.
type EnergyReport struct {
	Cache energy.Breakdown
	Main  energy.Breakdown
}

// Total reports system memory energy in joules.
func (e EnergyReport) Total() float64 { return e.Cache.Total() + e.Main.Total() }

// Result is one run's measurements.
type Result struct {
	Design   dramcache.Design
	Workload string

	Runtime  sim.Tick // measured-phase duration
	Accesses uint64   // core accesses executed in the measured phase

	Cache dramcache.Stats
	MM    backing.Stats

	Energy EnergyReport

	// L2MissRate is the fraction of core accesses that reached the DRAM
	// cache (diagnostics for workload calibration).
	L2MissRate float64
	// CacheActivates/CacheRowHits summarize cache-device row behaviour
	// (row hits only occur under the open-page ablation policy).
	CacheActivates, CacheRowHits uint64
	// CacheOccupancy/CacheDirty are content fractions at run end.
	CacheOccupancy, CacheDirty float64
}

// Throughput reports accesses per microsecond — the per-run performance
// measure speedups are built from.
func (r *Result) Throughput() float64 {
	if r.Runtime <= 0 {
		return 0
	}
	return float64(r.Accesses) / (float64(r.Runtime) / float64(sim.Microsecond))
}

// System is a fully wired machine. A System owns its event kernel,
// controller, backing store and cores outright, and no package under it
// keeps mutable global state (the ecc and workload tables are computed
// once at init and only read afterwards), so independent Systems may Run
// concurrently — the parallel matrix runner in internal/experiments
// depends on this. A single System is not safe for concurrent use.
type System struct {
	cfg   Config
	sim   *sim.Simulator
	mm    *backing.Memory
	ctl   *dramcache.Controller
	obs   *obs.Observer
	wd    *sim.Watchdog
	cores []*core
}

// New builds the machine from a warmup image of its own; see
// NewWithImage.
func New(cfg Config) (*System, error) { return NewWithImage(cfg, nil) }

// NewWithImage builds the machine seeded from img: every core gets deep
// copies of the image's stream and SRAM hierarchy, and the DRAM-cache
// content is installed into the controller (a geometry mismatch surfaces
// as ErrIncompatibleImage). A nil img builds a private image from cfg
// first, so every System starts from the same functional warmup whether
// or not its image is shared.
func NewWithImage(cfg Config, img *WarmupImage) (*System, error) {
	if img == nil {
		var err error
		if img, err = BuildWarmupImage(cfg); err != nil {
			return nil, err
		}
	} else if err := cfg.Validate(); err != nil {
		return nil, err
	} else if err := img.CompatibleWith(cfg); err != nil {
		return nil, err
	}
	s := sim.New()
	mm, err := backing.New(s, dram.DDR5Params())
	if err != nil {
		return nil, err
	}
	ctl, err := dramcache.New(s, cfg.Cache, mm)
	if err != nil {
		return nil, err
	}
	if img.tags != nil {
		if err := ctl.InstallTags(img.tags); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrIncompatibleImage, err)
		}
	}
	sys := &System{cfg: cfg, sim: s, mm: mm, ctl: ctl}
	ctl.OnDemandRetry = sys.wakeStalled
	if cfg.Obs.Enabled() {
		sys.obs = obs.New(s, cfg.Obs)
		ctl.SetObserver(sys.obs)
		mm.SetObserver(sys.obs)
	}
	if cfg.Watchdog > 0 {
		wd := sim.NewWatchdog(s, cfg.Watchdog)
		wd.SetOutstanding(sys.outstandingWork)
		wd.AddDump("cores", sys.describeStall)
		wd.AddDump("cachectl", ctl.DebugState)
		wd.AddDump("backing", mm.DebugState)
		if o := sys.obs; o != nil && o.FlightEnabled() {
			wd.AddDump("flight", o.FlightDump)
			wd.SetOnTrip(func(reason string) {
				o.FlightSnapshot("watchdog: " + reason)
			})
		}
		sys.wd = wd
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &core{
			sys:    sys,
			id:     i,
			stream: img.streams[i].Clone(),
			hier:   img.hiers[i].Clone(),
			think:  sim.NS(cfg.Workload.ThinkNS),
		}
		c.hier.WriteBack = c.emitWriteback
		c.onMiss = c.missDone
		sys.cores = append(sys.cores, c)
	}
	return sys, nil
}

// Controller exposes the DRAM-cache controller (inspection, examples).
func (sys *System) Controller() *dramcache.Controller { return sys.ctl }

// Simulator exposes the event kernel.
func (sys *System) Simulator() *sim.Simulator { return sys.sim }

// Observer exposes the observability subsystem (nil when disabled).
func (sys *System) Observer() *obs.Observer { return sys.obs }

// wakeStalled reschedules every core waiting on controller backpressure.
func (sys *System) wakeStalled() {
	for _, c := range sys.cores {
		if c.waitRetry && !c.wakeQueued {
			c.wakeQueued = true
			sys.sim.ScheduleArg(0, coreWakeEv, c)
		}
	}
}

// coreWakeEv resumes a core stalled on controller backpressure.
func coreWakeEv(a any, _ sim.Tick) {
	c := a.(*core)
	c.wakeQueued = false
	c.waitRetry = false
	c.tick()
}

// outstandingWork counts cores that still owe work in the current phase
// — the watchdog's liveness signal.
func (sys *System) outstandingWork() int {
	n := 0
	for _, c := range sys.cores {
		if !c.idle() {
			n++
		}
	}
	return n
}

// phase runs every core for n accesses and blocks until all are idle.
func (sys *System) phase(n int) error {
	for _, c := range sys.cores {
		c.beginPhase(n)
	}
	for _, c := range sys.cores {
		c.tick()
	}
	done := func() bool {
		for _, c := range sys.cores {
			if !c.idle() {
				return false
			}
		}
		return true
	}
	abort := func() error { return sys.tripError("phase aborted") }
	for i := 0; i < 1000; i++ {
		sys.sim.RunUntil(done)
		if sys.wd.Tripped() {
			return abort()
		}
		if done() {
			return nil
		}
		// Only daemon events remain (refresh-driven flush drains);
		// advance across a few refresh intervals and retry.
		sys.sim.Run(sys.sim.Now() + sim.NS(8000))
		if sys.wd.Tripped() {
			return abort()
		}
		if sys.sim.Pending() == 0 {
			break
		}
	}
	if !done() {
		if sys.wd != nil {
			sys.wd.TripDrained(sys.outstandingWork())
			return abort()
		}
		return fmt.Errorf("system: phase deadlocked at %v: %s", sys.sim.Now(), sys.describeStall())
	}
	return nil
}

// tripError wraps the watchdog's structured *sim.TripError into a run
// error. The message carries the full diagnostic dump (the CLIs print
// it), while errors.As recovers the TripError so a programmatic caller —
// a service failing a job — can take the one-line reason and file the
// diagnostics where they belong instead of echoing them.
func (sys *System) tripError(what string) error {
	return fmt.Errorf("system: %s at %v: %w\n%s", what, sys.sim.Now(), sys.wd.Err(), sys.wd.Report())
}

func (sys *System) describeStall() string {
	s := ""
	for _, c := range sys.cores {
		if !c.idle() {
			s += fmt.Sprintf("[core %d: exec %d/%d outstanding %d stalled %v] ",
				c.id, c.executed, c.target, c.outstanding, c.waitRetry)
		}
	}
	return s
}

// Run executes the timed warmup, then the measured phase, and collects
// results.
func (sys *System) Run() (*Result, error) {
	if sys.cfg.WarmupPerCore > 0 {
		if err := sys.phase(sys.cfg.WarmupPerCore); err != nil {
			return nil, err
		}
	}
	sys.ctl.ResetStats()
	if o := sys.obs; o != nil {
		o.ResetJourneys()
	}
	start := sys.sim.Now()
	for _, c := range sys.cores {
		c.misses = 0
	}
	if err := sys.phase(sys.cfg.RequestsPerCore); err != nil {
		return nil, err
	}
	runtime := sys.sim.Now() - start

	res := &Result{
		Design:   sys.cfg.Cache.Design,
		Workload: sys.cfg.Workload.Name,
		Runtime:  runtime,
		Accesses: uint64(sys.cfg.Cores * sys.cfg.RequestsPerCore),
		Cache:    *sys.ctl.Stats(),
		MM:       *sys.mm.Stats(),
	}
	var misses uint64
	for _, c := range sys.cores {
		misses += c.misses
	}
	res.L2MissRate = float64(misses) / float64(res.Accesses)
	res.CacheOccupancy, res.CacheDirty = sys.ctl.Occupancy()
	act := sys.ctl.DeviceActivity()
	res.CacheActivates, res.CacheRowHits = act.Activates, act.RowHits
	sys.ctl.FinalizeMeters()
	cm, mmM := sys.ctl.Meters()
	if cm != nil {
		res.Energy.Cache = cm.Render(runtime)
	}
	res.Energy.Main = mmM.Render(runtime)
	if o := sys.obs; o != nil {
		o.CloseJourneys()
	}
	if err := sys.drainResidual(); err != nil {
		return nil, err
	}
	return res, nil
}

// drainResidual empties the controller's background work after the
// measured phase. Cores going idle ends a phase, but dirty victims can
// still sit in the flush buffers waiting for an opportunistic drain that
// will never come once demand traffic stops — with no demand events left
// the kernel goes quiet and the entries strand (whether any remain at
// the final request's completion depends on the workload stream, so a
// stream change can surface it). The result snapshot is taken, and the
// journey aggregates closed, before this runs: the measured window covers
// exactly RequestsPerCore accesses either way, and the trailing
// write-back drain happens off the books, as it does in a real machine.
func (sys *System) drainResidual() error {
	if sys.ctl.Pending() == 0 {
		return nil
	}
	sys.ctl.DrainResidual()
	for i := 0; i < 256 && sys.ctl.Pending() > 0; i++ {
		sys.sim.Run(sys.sim.Now() + sim.NS(8000))
		if sys.wd != nil && sys.wd.Tripped() {
			return sys.tripError("residual drain aborted")
		}
	}
	if n := sys.ctl.Pending(); n > 0 {
		return fmt.Errorf("system: %d transactions still pending after residual drain at %v: %s",
			n, sys.sim.Now(), sys.ctl.DebugState())
	}
	return nil
}

// Run builds and runs a system in one call.
func Run(cfg Config) (*Result, error) { return RunWithImage(cfg, nil) }

// RunWithImage builds from the image (nil: a private one) and runs in
// one call.
func RunWithImage(cfg Config, img *WarmupImage) (*Result, error) {
	sys, err := NewWithImage(cfg, img)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}
