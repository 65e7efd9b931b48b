package dramcache

import (
	"fmt"

	"tdram/internal/mem"
	"tdram/internal/obs"
	"tdram/internal/sim"
)

// Observability wiring for the cache controller. Each channel controller
// owns one "cachectl.chN" process group with counter tracks for its read
// queue, write queue and flush-buffer occupancy, plus an instant-event
// track carrying tag-check results, probes and flush-buffer activity —
// the controller-side half of the Fig. 5-7 timelines (the device-side
// half lives in internal/dram).

// SetObserver attaches o to the controller, its cache device, and the
// backing store's device. Pass nil to detach.
func (c *Controller) SetObserver(o *obs.Observer) {
	c.obs = o
	if c.dev != nil {
		c.dev.SetObserver(o)
	}
	for _, cc := range c.chans {
		cc.trkReadQ, cc.trkWriteQ, cc.trkFlush, cc.trkEvents = 0, 0, 0, 0
	}
	if o.TraceEnabled() {
		for _, cc := range c.chans {
			proc := fmt.Sprintf("cachectl.ch%d", cc.index)
			cc.trkReadQ = o.Track(proc, "readq")
			cc.trkWriteQ = o.Track(proc, "writeq")
			cc.trkFlush = o.Track(proc, "flush")
			cc.trkEvents = o.Track(proc, "events")
		}
	}
	// Sampled time series. Gauge is a no-op without the sampler, and
	// every closure only reads model state.
	o.Gauge("cache.miss_ratio", func() float64 { return c.stats.Outcomes.MissRatio() })
	o.Gauge("cache.readq", func() float64 {
		n := 0
		for _, cc := range c.chans {
			n += len(cc.readQ)
		}
		return float64(n)
	})
	o.Gauge("cache.writeq", func() float64 {
		n := 0
		for _, cc := range c.chans {
			n += len(cc.writeQ) + cc.overflow.Len()
		}
		return float64(n)
	})
	o.Gauge("cache.flush", func() float64 {
		n := 0
		for _, cc := range c.chans {
			n += cc.flush.Len()
		}
		return float64(n)
	})
	o.Gauge("cache.conflict", func() float64 { return float64(c.conflictCount) })
	o.Gauge("cache.mmread_wait", func() float64 { return float64(c.mmReadWait.Len()) })
	// Rolling read-latency percentiles. The closures read c.stats (not a
	// captured Stats pointer) so they survive the warmup ResetStats swap.
	o.Gauge("cache.read_latency.p50", func() float64 { return c.stats.ReadLatencyHist.PercentileNS(0.50) })
	o.Gauge("cache.read_latency.p90", func() float64 { return c.stats.ReadLatencyHist.PercentileNS(0.90) })
	o.Gauge("cache.read_latency.p99", func() float64 { return c.stats.ReadLatencyHist.PercentileNS(0.99) })
	if c.dev != nil {
		o.Gauge("cache.dq_util", busUtilGauge(o, c.dev.Channels(), func() uint64 {
			return c.dev.Stats().DQBusyTicks
		}))
		if c.dev.Params().HasTagBanks() {
			o.Gauge("cache.hm_util", busUtilGauge(o, c.dev.Channels(), func() uint64 {
				return c.dev.Stats().HMBusyTicks
			}))
		}
	}
}

// busUtilGauge builds a utilization series from a cumulative busy-tick
// counter: the fraction of the last sampling interval the bus spent
// reserved, averaged over channels.
func busUtilGauge(o *obs.Observer, channels int, busy func() uint64) func() float64 {
	var last uint64
	return func() float64 {
		cur := busy()
		d := cur - last
		last = cur
		iv := o.MetricsInterval()
		if iv <= 0 || channels == 0 {
			return 0
		}
		return float64(d) / (float64(iv) * float64(channels))
	}
}

// observeQueues refreshes the per-channel occupancy counter tracks;
// unchanged values dedup away inside the trace buffer.
func (cc *chanCtl) observeQueues() {
	o := cc.ctl.obs
	if o == nil || cc.trkReadQ == 0 {
		return
	}
	now := cc.now()
	o.CounterInt(cc.trkReadQ, now, int64(len(cc.readQ)))
	o.CounterInt(cc.trkWriteQ, now, int64(len(cc.writeQ)+cc.overflow.Len()))
	o.CounterInt(cc.trkFlush, now, int64(cc.flush.Len()))
}

// observeOutcome records a tag-check result: a run-summary counter and
// an instant at the time the result reaches the controller — on the HM
// bus for TDRAM/NDC, with the data burst otherwise.
func (cc *chanCtl) observeOutcome(outcome mem.Outcome, at sim.Tick) {
	o := cc.ctl.obs
	if o == nil {
		return
	}
	o.Inc("cache.outcome." + outcome.String())
	if cc.trkEvents != 0 {
		kind := "tag-result "
		if cc.spec().tags == tagsInDevice {
			kind = "HM-result "
		}
		o.Instant(cc.trkEvents, kind+outcome.String(), at)
	}
}

// observeProbe records an early tag probe issue (§III-E).
func (cc *chanCtl) observeProbe(at sim.Tick) {
	o := cc.ctl.obs
	if o == nil {
		return
	}
	o.Inc("cache.probe")
	o.Instant(cc.trkEvents, "probe", at)
}

// observeFlushFill records a dirty victim entering the flush buffer.
func (cc *chanCtl) observeFlushFill() {
	o := cc.ctl.obs
	if o == nil {
		return
	}
	o.Inc("cache.flush.fill")
	if cc.trkEvents != 0 {
		now := cc.now()
		o.Instant(cc.trkEvents, "flush-fill", now)
		o.CounterInt(cc.trkFlush, now, int64(cc.flush.Len()))
	}
}

// observeFault records a fault-injection event ("retry", "exhausted",
// "bypass", "set.retired", "hm.resend", "flush.retry", ...) as a
// run-summary counter under the "fault." prefix.
func (c *Controller) observeFault(event string) {
	if c.obs != nil {
		c.obs.Inc("fault." + event)
	}
}

// observeFlushDrain records one flush-buffer entry leaving via the given
// mode: "refresh" (tRFC window), "idle-slot" (miss-clean DQ slot) or
// "explicit" (RES command).
func (cc *chanCtl) observeFlushDrain(mode string) {
	o := cc.ctl.obs
	if o == nil {
		return
	}
	o.Inc("cache.flush.drain." + mode)
	if cc.trkEvents != 0 {
		now := cc.now()
		o.Instant(cc.trkEvents, "flush-drain "+mode, now)
		o.CounterInt(cc.trkFlush, now, int64(cc.flush.Len()))
	}
}
