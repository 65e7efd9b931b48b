package obs

import (
	"tdram/internal/mem"
	"tdram/internal/sim"
	"tdram/internal/stats"
)

// classAgg aggregates completed journeys of one class: the latency
// histogram plus per-phase time sums for the stacked breakdown tables.
type classAgg struct {
	hist   *stats.LogHist
	phases [mem.NumPhases]sim.Tick
	count  uint64
}

// JourneyLog owns the journey ledger pool and the per-class aggregates.
// Journeys are recycled through a freelist — after the pool warms up to
// the in-flight high-water mark, starting and finishing journeys
// allocates nothing, matching the transaction-record discipline in the
// cache controller.
type JourneyLog struct {
	pool    mem.JourneyPool
	nextID  uint64
	resetAt uint64 // journeys started at or before this ID predate the last reset
	closed  bool   // the measured window has ended (CloseJourneys)
	classes [mem.NumJourneyClasses]classAgg
}

func newJourneyLog() *JourneyLog {
	jl := &JourneyLog{}
	for i := range jl.classes {
		jl.classes[i].hist = stats.NewLogHist()
	}
	return jl
}

// StartJourney begins attribution for one demand: a pooled ledger with
// the core-queue phase already open at the current simulated time. Nil
// when journey tracking is disabled — callers store the result into
// Request.J unconditionally and every downstream touch nil-checks.
func (o *Observer) StartJourney(core int, line uint64, write bool) *mem.Journey {
	if o == nil || o.journeys == nil {
		return nil
	}
	jl := o.journeys
	j := jl.pool.Get()
	jl.nextID++
	j.ID = jl.nextID
	j.Line = line
	j.Core = core
	if write {
		j.MarkWrite()
	}
	now := o.sim.Now()
	j.Start = now
	j.Enter(mem.PhaseCoreQueue, now)
	return j
}

// FinishJourney classifies and aggregates a completed journey, copies it
// into the flight-recorder ring, and returns the ledger to the pool. The
// caller must clear its own reference first (the controller nils
// Request.J before calling), since the ledger is recycled immediately.
func (o *Observer) FinishJourney(j *mem.Journey, end sim.Tick) {
	if o == nil || o.journeys == nil || j == nil {
		return
	}
	j.End = end
	// Journeys started before the last reset (posted writes straddling
	// the warmup/measured boundary) or finished after CloseJourneys go to
	// the flight ring but stay out of the measured aggregates, mirroring
	// Controller.ResetStats and the Result snapshot.
	if j.ID > o.journeys.resetAt && !o.journeys.closed {
		agg := &o.journeys.classes[j.Class()]
		agg.count++
		agg.hist.AddTick(j.Total())
		for p, d := range j.Phases {
			agg.phases[p] += d
		}
	}
	if o.flight != nil {
		o.flight.recordJourney(j)
	}
	o.journeys.pool.Put(j)
}

// AbandonJourney returns an unfinished ledger to the pool without
// aggregating it (warmup-phase completions, run teardown).
func (o *Observer) AbandonJourney(j *mem.Journey) {
	if o == nil || o.journeys == nil || j == nil {
		return
	}
	o.journeys.pool.Put(j)
}

// ResetJourneys zeroes the per-class aggregates (the warmup/measured
// boundary) while keeping the ledger pool and flight ring warm.
func (o *Observer) ResetJourneys() {
	if o == nil || o.journeys == nil {
		return
	}
	o.journeys.resetAt = o.journeys.nextID
	for i := range o.journeys.classes {
		agg := &o.journeys.classes[i]
		agg.hist = stats.NewLogHist()
		agg.phases = [mem.NumPhases]sim.Tick{}
		agg.count = 0
	}
}

// CloseJourneys ends the measured window at the run's result snapshot:
// journeys finishing later (posted writes the residual drain retires)
// still reach the flight ring but no longer the per-class aggregates,
// so those cover the same requests as the Result.
func (o *Observer) CloseJourneys() {
	if o == nil || o.journeys == nil {
		return
	}
	o.journeys.closed = true
}

// JourneyClassCount reports completed journeys of one class.
func (o *Observer) JourneyClassCount(c mem.JourneyClass) uint64 {
	if o == nil || o.journeys == nil {
		return 0
	}
	return o.journeys.classes[c].count
}

// JourneyClassHist reports one class's end-to-end latency histogram
// (nil when journey tracking is disabled).
func (o *Observer) JourneyClassHist(c mem.JourneyClass) *stats.LogHist {
	if o == nil || o.journeys == nil {
		return nil
	}
	return o.journeys.classes[c].hist
}

// JourneyPhaseSum reports the total time one class spent in one phase.
func (o *Observer) JourneyPhaseSum(c mem.JourneyClass, p mem.Phase) sim.Tick {
	if o == nil || o.journeys == nil {
		return 0
	}
	return o.journeys.classes[c].phases[p]
}
