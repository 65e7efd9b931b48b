package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"tdram/internal/sim"
)

// Sampler records registered gauges at a fixed simulated-time period. It
// runs on daemon events, so an otherwise-finished simulation still
// drains: sampling can never keep a run alive or change when model
// events fire relative to each other.
type Sampler struct {
	obs      *Observer
	sim      *sim.Simulator
	interval sim.Tick
	max      int

	names  []string
	fns    []func() float64
	tracks []TrackID // lazily created Perfetto counter tracks

	times   []sim.Tick
	values  [][]float64 // values[i] is the column for names[i]
	dropped uint64      // ticks past the row budget (reported, not stored)
}

func newSampler(o *Observer, interval sim.Tick, max int) *Sampler {
	return &Sampler{obs: o, interval: interval, max: max}
}

func (sp *Sampler) add(name string, fn func() float64) {
	sp.names = append(sp.names, name)
	sp.fns = append(sp.fns, fn)
	sp.tracks = append(sp.tracks, 0)
	sp.values = append(sp.values, nil)
}

func (sp *Sampler) start(s *sim.Simulator) {
	sp.sim = s
	s.ScheduleDaemonArg(sp.interval, samplerTickEv, sp)
}

// samplerTickEv dispatches a sampling tick without allocating a closure
// per reschedule.
func samplerTickEv(a any, _ sim.Tick) {
	sp := a.(*Sampler)
	sp.tick(sp.sim)
}

func (sp *Sampler) tick(s *sim.Simulator) {
	if len(sp.times) >= sp.max {
		// Budget spent: count the dropped row and keep the daemon schedule
		// alive so the truncation is measured, not silent. Daemon events
		// cannot perturb model timing, so rescheduling is free of risk.
		sp.dropped++
		s.ScheduleDaemonArg(sp.interval, samplerTickEv, sp)
		return
	}
	now := s.Now()
	sp.times = append(sp.times, now)
	for i, fn := range sp.fns {
		v := fn()
		sp.values[i] = append(sp.values[i], v)
		// Mirror each series onto a Perfetto counter track so traces and
		// metrics line up on one timeline.
		if sp.obs.TraceEnabled() {
			if sp.tracks[i] == 0 {
				sp.tracks[i] = sp.obs.Track("metrics", sp.names[i])
			}
			sp.obs.CounterFloat(sp.tracks[i], now, v)
		}
	}
	s.ScheduleDaemonArg(sp.interval, samplerTickEv, sp)
}

// Samples reports the number of recorded sampling rows.
func (o *Observer) Samples() int {
	if o == nil || o.sampler == nil {
		return 0
	}
	return len(o.sampler.times)
}

// SamplesDropped reports sampling ticks lost to the MaxSamples budget.
func (o *Observer) SamplesDropped() uint64 {
	if o == nil || o.sampler == nil {
		return 0
	}
	return o.sampler.dropped
}

// MetricsInterval reports the sampling period (0 when disabled).
func (o *Observer) MetricsInterval() sim.Tick {
	if o == nil || o.sampler == nil {
		return 0
	}
	return o.sampler.interval
}

// MetricNames returns the registered series names in column order.
func (o *Observer) MetricNames() []string {
	if o == nil || o.sampler == nil {
		return nil
	}
	return append([]string(nil), o.sampler.names...)
}

// MetricSeries returns the recorded samples of one series (nil if
// unknown).
func (o *Observer) MetricSeries(name string) []float64 {
	if o == nil || o.sampler == nil {
		return nil
	}
	for i, n := range o.sampler.names {
		if n == name {
			return append([]float64(nil), o.sampler.values[i]...)
		}
	}
	return nil
}

func fmtSample(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }

// WriteMetricsCSV writes the sampled time series as CSV: a time_ns
// column followed by one column per registered gauge, in registration
// order.
func (o *Observer) WriteMetricsCSV(w io.Writer) error {
	if o == nil || o.sampler == nil {
		_, err := io.WriteString(w, "time_ns\n")
		return err
	}
	sp := o.sampler
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("time_ns")
	for _, n := range sp.names {
		bw.WriteString(",")
		bw.WriteString(n)
	}
	bw.WriteString("\n")
	for row, t := range sp.times {
		bw.WriteString(strconv.FormatFloat(t.Nanoseconds(), 'f', 3, 64))
		for i := range sp.names {
			bw.WriteString(",")
			bw.WriteString(fmtSample(sp.values[i][row]))
		}
		bw.WriteString("\n")
	}
	return bw.Flush()
}

// WriteMetricsJSON writes the same series as a column-oriented JSON
// object: {"interval_ns":..., "time_ns":[...], "series":{name:[...]}}.
func (o *Observer) WriteMetricsJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if o == nil || o.sampler == nil {
		if _, err := bw.WriteString(`{"interval_ns":0,"time_ns":[],"series":{}}`); err != nil {
			return err
		}
		return bw.Flush()
	}
	sp := o.sampler
	fmt.Fprintf(bw, `{"interval_ns":%s,"time_ns":[`, strconv.FormatFloat(sp.interval.Nanoseconds(), 'f', -1, 64))
	for i, t := range sp.times {
		if i > 0 {
			bw.WriteString(",")
		}
		bw.WriteString(strconv.FormatFloat(t.Nanoseconds(), 'f', 3, 64))
	}
	bw.WriteString(`],"series":{`)
	for i, n := range sp.names {
		if i > 0 {
			bw.WriteString(",")
		}
		fmt.Fprintf(bw, "%s:[", strconv.Quote(n))
		for j, v := range sp.values[i] {
			if j > 0 {
				bw.WriteString(",")
			}
			bw.WriteString(fmtSample(v))
		}
		bw.WriteString("]")
	}
	if _, err := bw.WriteString("}}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
