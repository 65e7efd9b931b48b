// Package obs is the observability subsystem: structured event tracing
// and time-series metrics for every layer of the simulator. It has three
// outputs:
//
//  1. a Chrome/Perfetto trace-event JSON exporter (perfetto.go) whose
//     tracks are the modeled hardware resources — channels, banks, the
//     CA/DQ/HM buses, controller queues — so any run regenerates the
//     paper's Fig. 5-7-style timing diagrams in ui.perfetto.dev;
//  2. a periodic time-series sampler (sampler.go) recording queue
//     depths, flush-buffer occupancy, bus utilization and miss ratio as
//     CSV or JSON for plotting;
//  3. run-summary counters (command mix, event volumes) that extend —
//     not replace — the scalar aggregates in internal/stats.
//
// Instrumentation follows a nil-check hook pattern: every instrumented
// component holds a *Observer that is nil when observability is off, so
// the disabled hot path costs a single predictable branch. All Observer
// methods are safe on a nil receiver. Observation must never perturb
// simulated timing: hooks only read model state and append to buffers,
// and the sampler runs on daemon events that cannot keep a simulation
// alive or reorder model events relative to each other.
package obs

import (
	"sort"

	"tdram/internal/sim"
)

// Config selects which outputs an Observer produces. The zero value
// disables everything.
type Config struct {
	// Trace records Perfetto trace events (slices, instants, counters).
	Trace bool
	// MetricsInterval, when positive, samples every registered gauge at
	// this period of simulated time.
	MetricsInterval sim.Tick
	// MaxTraceEvents bounds the trace buffer; once reached, further
	// events are dropped (and counted). Zero selects a generous default.
	MaxTraceEvents int
	// MaxSamples bounds the sampler rows. Zero selects a default.
	MaxSamples int
	// Journeys enables per-request phase attribution: every demand
	// carries a pooled ledger and completions feed per-class latency
	// histograms and phase sums.
	Journeys bool
	// FlightRecorder, when positive, keeps a bounded ring of the most
	// recent completed journeys and issued DRAM commands for post-mortem
	// dumps (watchdog trips, uncorrectable faults, set retirement).
	// Implies journey tracking.
	FlightRecorder int
}

// Enabled reports whether any output is requested.
func (c Config) Enabled() bool {
	return c.Trace || c.MetricsInterval > 0 || c.Journeys || c.FlightRecorder > 0
}

// Observer collects trace events, time-series samples and summary
// counters from instrumented components. A nil *Observer is the disabled
// subsystem: every method nil-checks the receiver.
type Observer struct {
	sim      *sim.Simulator
	trace    *Trace
	sampler  *Sampler
	journeys *JourneyLog
	flight   *FlightRecorder
	counters map[string]uint64
}

// New builds an Observer on simulator s. Components are attached
// afterwards via their SetObserver methods; the sampler starts its
// daemon schedule immediately (the first sample fires one interval in).
func New(s *sim.Simulator, cfg Config) *Observer {
	o := &Observer{sim: s, counters: make(map[string]uint64)}
	if cfg.Trace {
		max := cfg.MaxTraceEvents
		if max <= 0 {
			max = 1 << 21
		}
		o.trace = newTrace(max)
	}
	if cfg.MetricsInterval > 0 {
		max := cfg.MaxSamples
		if max <= 0 {
			max = 1 << 20
		}
		o.sampler = newSampler(o, cfg.MetricsInterval, max)
		o.sampler.start(s)
	}
	if cfg.Journeys || cfg.FlightRecorder > 0 {
		o.journeys = newJourneyLog()
	}
	if cfg.FlightRecorder > 0 {
		o.flight = newFlightRecorder(cfg.FlightRecorder)
	}
	// Kernel wiring: the event kernel's own health is the first thing a
	// stall investigation needs.
	o.Gauge("kernel.pending_events", func() float64 { return float64(s.Pending()) })
	var lastFired uint64
	o.Gauge("kernel.events_fired", func() float64 {
		f := s.Fired()
		d := f - lastFired
		lastFired = f
		return float64(d)
	})
	return o
}

// Now reports the current simulated time (0 on a nil Observer).
func (o *Observer) Now() sim.Tick {
	if o == nil || o.sim == nil {
		return 0
	}
	return o.sim.Now()
}

// Detach unlinks the observer of a finished run from its simulation: the
// simulator and the sampler's gauges reach the whole model, so a caller
// that keeps the observer for its outputs (journey aggregates, trace,
// samples, counters) would otherwise keep the model alive too. Nothing
// is recorded after Detach, and Now reports 0.
func (o *Observer) Detach() {
	if o == nil {
		return
	}
	o.sim = nil
	if sp := o.sampler; sp != nil {
		sp.sim, sp.fns = nil, nil
	}
}

// TraceEnabled reports whether Perfetto events are being recorded. Hook
// sites that build event arguments guard on this to keep the disabled
// path to one branch.
func (o *Observer) TraceEnabled() bool { return o != nil && o.trace != nil }

// MetricsEnabled reports whether the periodic sampler is running.
func (o *Observer) MetricsEnabled() bool { return o != nil && o.sampler != nil }

// JourneysEnabled reports whether per-request journey attribution is on.
func (o *Observer) JourneysEnabled() bool { return o != nil && o.journeys != nil }

// FlightEnabled reports whether the flight recorder is running.
func (o *Observer) FlightEnabled() bool { return o != nil && o.flight != nil }

// Inc bumps a run-summary counter by one.
func (o *Observer) Inc(name string) {
	if o == nil {
		return
	}
	o.counters[name]++
}

// Count adds delta to a run-summary counter.
func (o *Observer) Count(name string, delta uint64) {
	if o == nil {
		return
	}
	o.counters[name] += delta
}

// Counter is one named run-summary tally.
type Counter struct {
	Name  string
	Value uint64
}

// Counters returns the run-summary counters sorted by name, so output is
// deterministic. Dropped observability data — trace events past
// MaxTraceEvents, sampler rows past MaxSamples — surfaces here as
// synthetic obs.trace_dropped / obs.samples_dropped counters, so
// truncated outputs are never mistaken for complete ones.
func (o *Observer) Counters() []Counter {
	if o == nil {
		return nil
	}
	cs := make([]Counter, 0, len(o.counters)+2)
	for n, v := range o.counters {
		cs = append(cs, Counter{Name: n, Value: v})
	}
	if _, dropped := o.TraceEvents(); dropped > 0 {
		cs = append(cs, Counter{Name: "obs.trace_dropped", Value: dropped})
	}
	if dropped := o.SamplesDropped(); dropped > 0 {
		cs = append(cs, Counter{Name: "obs.samples_dropped", Value: dropped})
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	return cs
}

// Gauge registers a sampled time series. fn is called once per sampling
// interval and must only read model state. Registration order fixes the
// CSV column order; without a sampler the registration is dropped.
func (o *Observer) Gauge(name string, fn func() float64) {
	if o == nil || o.sampler == nil {
		return
	}
	o.sampler.add(name, fn)
}
