package dramcache

import (
	"fmt"
	"strings"

	"tdram/internal/backing"
	"tdram/internal/dram"
	"tdram/internal/ecc"
	"tdram/internal/energy"
	"tdram/internal/fault"
	"tdram/internal/mem"
	"tdram/internal/obs"
	"tdram/internal/predict"
	"tdram/internal/ring"
	"tdram/internal/sim"
	"tdram/internal/stats"
)

// TrafficBreakdown classifies every byte moved, so both the paper's
// bandwidth-bloat factor (Table IV: all bytes moved per 64 demand bytes)
// and Fig. 3's useful/unuseful split can be derived.
type TrafficBreakdown struct {
	// Cache-device DQ bus.
	DemandBytes   uint64 // hit data to controller, demand write data
	FillBytes     uint64 // miss fills written into the cache
	VictimBytes   uint64 // dirty victims moved to the controller (incl. flush drains)
	DiscardBytes  uint64 // tag-check read data the controller discards
	OverheadBytes uint64 // over-fetch beyond 64 B (80 B TADs, NDC tag beats)
	// Main-memory bus.
	MMDemandBytes    uint64 // backing-store fetches serving demand misses
	MMWritebackBytes uint64 // dirty victims written back
}

// CacheTotal reports all bytes moved on the cache device's DQ bus.
func (t *TrafficBreakdown) CacheTotal() uint64 {
	return t.DemandBytes + t.FillBytes + t.VictimBytes + t.DiscardBytes + t.OverheadBytes
}

// Total reports all bytes moved in the memory system.
func (t *TrafficBreakdown) Total() uint64 {
	return t.CacheTotal() + t.MMDemandBytes + t.MMWritebackBytes
}

// UnusefulFraction reports Fig. 3's metric: the share of cache-bus
// traffic that served no purpose (discarded tag-check data and
// over-fetch).
func (t *TrafficBreakdown) UnusefulFraction() float64 {
	tot := t.CacheTotal()
	if tot == 0 {
		return 0
	}
	return float64(t.DiscardBytes+t.OverheadBytes) / float64(tot)
}

// Stats aggregates one controller's measurements.
type Stats struct {
	DemandReads, DemandWrites uint64

	Outcomes stats.OutcomeCounts

	// TagCheck is the paper's Fig. 9 metric: controller-issue-to-result
	// including queue occupancy, in ns, over all demands.
	TagCheck stats.Mean
	// ReadQueueing is Figs. 2/10: enqueue-to-command-issue of entries in
	// the read buffer (including CL-family write tag-reads).
	ReadQueueing stats.Mean
	// ReadLatency is the full demand-read latency (arrive to data).
	ReadLatency stats.Mean
	// TagCheckHist and ReadLatencyHist resolve the distributions behind
	// the means for tail-latency reporting (p95/p99 and beyond). They are
	// log-bucketed (~1 % relative error from ns to ms), so miss-path and
	// fault-retry samples land in real buckets instead of a linear
	// histogram's overflow.
	TagCheckHist    *stats.LogHist
	ReadLatencyHist *stats.LogHist

	Traffic TrafficBreakdown

	MMReads, MMWrites uint64

	Probes, ProbeMissClean, ProbeHits, ProbeMissDirty uint64

	FlushOccupancy                                            stats.Mean
	FlushMax                                                  int
	FlushStalls                                               uint64
	FlushDrainRefresh, FlushDrainIdleSlot, FlushDrainExplicit uint64

	FillsBypassed   uint64
	WriteTagReads   uint64
	ConflictWaits   uint64
	ConflictRejects uint64
	QueueRejects    uint64

	PredictorMissStarts uint64
	PredictorAccuracy   float64

	PrefetchesIssued, PrefetchesUseful uint64

	// MMReadWaits counts backing-store fetches parked because the read
	// queue was full; MMReadPumps counts the queue-free wakeups that
	// re-offered them (event-driven, not polled).
	MMReadWaits, MMReadPumps uint64

	// Fault aggregates the fault-injection subsystem's counters; all
	// zero when injection is disabled.
	Fault fault.Counters
}

// BloatFactor is Table IV's metric: every byte moved in the memory
// system per 64 demand bytes.
func (s *Stats) BloatFactor() float64 {
	demands := s.DemandReads + s.DemandWrites
	if demands == 0 {
		return 0
	}
	return float64(s.Traffic.Total()) / float64(demands*64)
}

// Controller is the DRAM-cache controller: it accepts 64 B demands from
// the on-chip hierarchy, runs them against the configured design's
// protocol on the cache device, and falls through to the backing store
// on misses.
type Controller struct {
	sim  *sim.Simulator
	cfg  Config
	spec designSpec   // cfg.Design's capability row
	dev  *dram.Device // nil for NoCache
	mm   *backing.Memory

	tags  *tagStore
	chans []*chanCtl

	// inflight tracks lines with a pending fill: value is the list of
	// demands waiting in the conflicting-request buffer.
	inflight      map[uint64][]*mem.Request
	conflictCount int

	// wbQ holds dirty victims awaiting acceptance by the backing store;
	// mmReadWait holds backing fetches parked behind a full read queue.
	wbQ        ring.Ring[uint64]
	mmReadWait ring.Ring[pendingMM]

	// fault is the fault-injection hook; nil (the default) disables it.
	fault *fault.Injector
	// retryingTxns counts transactions parked in a fault-retry backoff
	// (outside any queue but still owed to the device).
	retryingTxns int

	predictor  *predict.MAPI
	prefetcher *predict.StridePrefetcher
	// prefetched tracks lines brought in by the prefetcher and not yet
	// referenced, to score usefulness.
	prefetched map[uint64]struct{}

	// bearPSel is the set-dueling selector for BEAR's bandwidth-aware
	// bypass: misses in bypass-leader sets push it up, misses in
	// fill-leader sets push it down; followers bypass while it stays
	// below the threshold (bypassing is not costing hits).
	bearPSel int

	// obs is the observability hook; nil (the default) disables it.
	obs *obs.Observer

	// Prebound method-value callbacks for backing-fetch completions whose
	// argument is not a *txn (bound once in New, so the per-request hot
	// paths never allocate a method-value closure).
	noCacheDoneFn  func(any, sim.Tick)
	prefetchDoneFn func(any, sim.Tick)

	meter   *energy.Meter // cache device
	mmMeter *energy.Meter
	// Device-counter snapshots at the last ResetStats, so meters report
	// measured-phase activity only.
	devBase   dram.ChannelStats
	mmDevBase dram.ChannelStats

	stats Stats

	// OnDemandRetry is invoked when a previously rejected demand might
	// now be accepted (queue space freed). The system layer uses it to
	// resume stalled cores.
	OnDemandRetry func()

	// OnAccept, when set, observes every accepted demand exactly once —
	// the trace recorder's hook.
	OnAccept func(*mem.Request)
}

// pendingMM is one backing fetch parked behind a full read queue,
// carrying the typed-argument completion it will be re-offered with.
type pendingMM struct {
	line uint64
	fn   func(any, sim.Tick)
	arg  any
}

// New builds a controller for cfg on simulator s against backing store
// mm. The cache device is created internally from the paper's Table III
// parameters.
func New(s *sim.Simulator, cfg Config, mm *backing.Memory) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		sim:      s,
		cfg:      cfg,
		spec:     cfg.Design.spec(),
		mm:       mm,
		inflight: make(map[uint64][]*mem.Request),
		mmMeter:  energy.NewMeter(energy.DDR5(), mm.Device().Channels()),
		stats:    newStats(),
	}
	c.noCacheDoneFn = c.noCacheDone
	c.prefetchDoneFn = c.prefetchDone
	// Backpressured backing-store traffic rearms from the queues' free
	// events instead of polling.
	mm.OnReadFree = func() {
		if c.mmReadWait.Len() == 0 {
			return
		}
		c.stats.MMReadPumps++
		if c.obs != nil {
			c.obs.Inc("cache.mmread.pump")
		}
		c.pumpMMReads()
	}
	mm.OnWriteFree = func() {
		if c.wbQ.Len() > 0 {
			c.pumpWritebacks()
		}
	}
	if c.spec.tags == tagsNone {
		return c, nil
	}
	c.fault = fault.New(cfg.Fault)
	devParams := dram.CacheDeviceParams(cfg.CapacityBytes)
	if cfg.OpenPage {
		devParams.OpenPage = true
		// Tag banks are a TDRAM/NDC feature; the open-page ablation runs
		// tags-with-data designs, which never issue tag-lockstep ops.
		devParams.TRCDTag, devParams.THM, devParams.THMInt, devParams.TRCTag = 0, 0, 0, 0
	}
	dev, err := dram.NewDevice(s, devParams)
	if err != nil {
		return nil, err
	}
	c.dev = dev
	c.tags, err = newTagStore(cfg.CapacityBytes, cfg.Ways)
	if err != nil {
		return nil, err
	}
	if c.spec.tags == tagsInDevice {
		// The base-die BIST initializes tags and verifies the on-die ECC
		// paths at startup (§III-C3).
		if err := ecc.SelfCheck(); err != nil {
			return nil, err
		}
	}
	c.meter = energy.NewMeter(energy.HBMCache(), dev.Channels())
	c.chans = make([]*chanCtl, dev.Channels())
	for i := range c.chans {
		cc := &chanCtl{ctl: c, ch: dev.Channel(i), index: i}
		c.chans[i] = cc
		if c.spec.hmBus {
			cc.ch.OnRefresh = cc.refreshDrain
		}
	}
	if cfg.UsePredictor {
		c.predictor = predict.NewMAPI(256)
	}
	if cfg.UsePrefetcher {
		deg := cfg.PrefetchDegree
		if deg < 1 {
			deg = 1
		}
		c.prefetcher = predict.NewStridePrefetcher(128, deg)
		c.prefetched = make(map[uint64]struct{})
	}
	return c, nil
}

// maybePrefetch trains the stride prefetcher on a demand read and issues
// confident proposals: each prefetch installs the line (like a read
// miss) and fetches it from the backing store, consuming mm and fill
// bandwidth — the interference the paper's §V-D discusses. Prefetches
// that would displace dirty victims are skipped (they would add a
// victim read on top).
func (c *Controller) maybePrefetch(core int, line uint64) {
	if c.prefetcher == nil {
		return
	}
	for _, target := range c.prefetcher.Observe(core, line) {
		if _, busy := c.inflight[target]; busy {
			continue
		}
		if c.fault != nil && c.tags.isRetired(target) {
			continue // retired sets never fill
		}
		pr := c.tags.probe(target)
		if pr.Hit || pr.Dirty {
			continue
		}
		if !c.mm.ReadQueueFree(target) {
			continue // never let prefetches stall demand fetches
		}
		if len(c.prefetched) > 1<<16 {
			// Bound the usefulness-scoring map; scoring is approximate.
			c.prefetched = make(map[uint64]struct{})
		}
		c.tags.access(target, false, true)
		c.markInflight(target)
		c.prefetched[target] = struct{}{}
		c.stats.PrefetchesIssued++
		c.countMMRead()
		c.mm.ReadArg(target, c.prefetchDoneFn, target)
	}
}

// prefetchDone completes a prefetcher-issued backing fetch.
func (c *Controller) prefetchDone(a any, _ sim.Tick) {
	line := a.(uint64)
	c.resolveInflight(line)
	c.dispatchFill(line)
}

// scorePrefetch marks a prefetched line as referenced.
func (c *Controller) scorePrefetch(line uint64) {
	if c.prefetched == nil {
		return
	}
	if _, ok := c.prefetched[line]; ok {
		delete(c.prefetched, line)
		c.stats.PrefetchesUseful++
	}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns the accumulated measurements. Predictor accuracy is
// refreshed on each call.
func (c *Controller) Stats() *Stats {
	if c.predictor != nil {
		c.stats.PredictorAccuracy = c.predictor.Accuracy()
	}
	if c.fault != nil {
		c.stats.Fault = c.fault.Counters()
	}
	return &c.stats
}

// Device exposes the cache DRAM device (nil for NoCache).
func (c *Controller) Device() *dram.Device { return c.dev }

// Meters returns the cache-device and main-memory energy meters; the
// cache meter is nil for NoCache.
func (c *Controller) Meters() (cache, main *energy.Meter) { return c.meter, c.mmMeter }

// Occupancy reports valid/dirty fractions of the cache content.
func (c *Controller) Occupancy() (valid, dirty float64) {
	if c.tags == nil {
		return 0, 0
	}
	return c.tags.occupancy()
}

// newStats builds a Stats with its histograms allocated.
func newStats() Stats {
	return Stats{
		TagCheckHist:    stats.NewLogHist(),
		ReadLatencyHist: stats.NewLogHist(),
	}
}

// sampleTagCheck records one tag-check latency sample.
func (c *Controller) sampleTagCheck(d sim.Tick) {
	c.stats.TagCheck.AddTick(d)
	c.stats.TagCheckHist.AddTick(d)
}

// sampleReadLatency records one completed demand read's latency.
func (c *Controller) sampleReadLatency(d sim.Tick) {
	c.stats.ReadLatency.AddTick(d)
	c.stats.ReadLatencyHist.AddTick(d)
}

// ResetStats clears measurements (after warmup) without touching cache
// content or device state.
func (c *Controller) ResetStats() {
	c.stats = newStats()
	// Counters reset; the injector's PRNG stream deliberately does not
	// (warmup faults happened, only their accounting is discarded).
	if c.fault != nil {
		c.fault.ResetCounters()
	}
	// Likewise the predictor: the learned table persists (it is warmed
	// state), but the accuracy score restarts so PredictorAccuracy covers
	// measured accesses only.
	if c.predictor != nil {
		c.predictor.ResetAccuracy()
	}
	// Drop warmup-issued prefetches from the usefulness scoring map:
	// otherwise measured-phase PrefetchesUseful can count (and even
	// exceed) prefetches whose issue was never measured.
	if c.prefetched != nil && len(c.prefetched) > 0 {
		clear(c.prefetched)
	}
	if c.meter != nil {
		ch := c.meter.Channels
		co := c.meter.Coeffs
		*c.meter = *energy.NewMeter(co, ch)
	}
	*c.mmMeter = *energy.NewMeter(c.mmMeter.Coeffs, c.mmMeter.Channels)
	mmStats := c.mm.Stats()
	*mmStats = backing.Stats{}
	if c.dev != nil {
		c.devBase = c.dev.Stats()
	}
	c.mmDevBase = c.mm.Device().Stats()
}

// DeviceActivity reports the cache device's activity counters since the
// last ResetStats (zero value for NoCache).
func (c *Controller) DeviceActivity() dram.ChannelStats {
	if c.dev == nil {
		return dram.ChannelStats{}
	}
	d := c.dev.Stats()
	return dram.ChannelStats{
		Activates:    d.Activates - c.devBase.Activates,
		TagActivates: d.TagActivates - c.devBase.TagActivates,
		Probes:       d.Probes - c.devBase.Probes,
		Refreshes:    d.Refreshes - c.devBase.Refreshes,
		HMTransfers:  d.HMTransfers - c.devBase.HMTransfers,
		RowHits:      d.RowHits - c.devBase.RowHits,
		Precharges:   d.Precharges - c.devBase.Precharges,
		DQBusyTicks:  d.DQBusyTicks - c.devBase.DQBusyTicks,
		HMBusyTicks:  d.HMBusyTicks - c.devBase.HMBusyTicks,
	}
}

// FinalizeMeters copies device activity counters (activations, tag
// activations, HM transfers, refreshes) accumulated since the last
// ResetStats into the energy meters. Call before rendering energy.
func (c *Controller) FinalizeMeters() {
	if c.dev != nil {
		d := c.dev.Stats()
		c.meter.Acts = d.Activates - c.devBase.Activates
		c.meter.TagActs = d.TagActivates - c.devBase.TagActivates
		c.meter.HMs = d.HMTransfers - c.devBase.HMTransfers
		c.meter.Refreshes = d.Refreshes - c.devBase.Refreshes
	}
	md := c.mm.Device().Stats()
	c.mmMeter.Refreshes = md.Refreshes - c.mmDevBase.Refreshes
}

// Enqueue accepts one demand. It reports false when backpressure (full
// queues or conflict buffer) prevents acceptance; the caller must retry
// later. Writes are posted: their Complete fires on acceptance.
func (c *Controller) Enqueue(req *mem.Request) bool {
	req.Arrive = c.sim.Now()
	line := req.Line()

	if c.spec.tags == tagsNone {
		return c.enqueueNoCache(req)
	}

	// Controller-side MSHR check: demands to lines with a pending fill
	// wait in the conflicting-request buffer (Table III: 32 entries).
	if waiters, ok := c.inflight[line]; ok {
		if c.conflictCount >= ConflictDepth {
			c.stats.ConflictRejects++
			return false
		}
		c.inflight[line] = append(waiters, req)
		c.conflictCount++
		c.stats.ConflictWaits++
		if j := req.J; j != nil {
			// Coalesced waiters ride the in-flight fill of a miss; without
			// a resolved outcome of their own they class as clean misses.
			j.Note(mem.ReadMissClean)
			j.Enter(mem.PhaseFill, c.sim.Now())
		}
		c.countDemand(req)
		if req.Kind == mem.Read {
			c.scorePrefetch(line)
		}
		if req.Kind == mem.Write {
			req.Complete()
		}
		return true
	}

	// Graceful degradation: demands to retired sets (too many
	// uncorrectable errors) bypass the cache to backing memory.
	if c.fault != nil && c.tags.isRetired(line) {
		if !c.enqueueNoCache(req) {
			return false
		}
		c.fault.NoteBypass()
		c.observeFault("bypass")
		return true
	}

	chIdx, bank := c.dev.Route(line)
	cc := c.chans[chIdx]

	if req.Kind == mem.Read {
		if !cc.acceptRead(req, bank) {
			c.stats.QueueRejects++
			return false
		}
		c.countDemand(req)
		c.maybePrefetch(req.Core, line)
		return true
	}
	if !cc.acceptWrite(req, bank) {
		c.stats.QueueRejects++
		return false
	}
	// Count the write, closing its core-queue phase, before the pass that
	// may issue its data write and finish its journey.
	c.countDemand(req)
	cc.pass()
	req.Complete() // posted write
	return true
}

func (c *Controller) countDemand(req *mem.Request) {
	if req.Kind == mem.Read {
		c.stats.DemandReads++
	} else {
		c.stats.DemandWrites++
	}
	if j := req.J; j != nil {
		j.Exit(mem.PhaseCoreQueue, c.sim.Now())
	}
	if c.OnAccept != nil {
		c.OnAccept(req)
	}
}

// finishJourney closes out a request's journey ledger exactly once. The
// field is cleared before the observer recycles the ledger, so a
// late-path double finish can never aggregate a pooled (reused) ledger.
func (c *Controller) finishJourney(req *mem.Request, end sim.Tick) {
	j := req.J
	if j == nil {
		return
	}
	req.J = nil
	if c.obs != nil {
		c.obs.FinishJourney(j, end)
	}
}

// enqueueNoCache routes demands straight to the backing store.
func (c *Controller) enqueueNoCache(req *mem.Request) bool {
	line := req.Line()
	if req.Kind == mem.Read {
		if !c.mm.ReadArg(line, c.noCacheDoneFn, req) {
			c.stats.QueueRejects++
			return false
		}
		c.countMMRead()
		c.countDemand(req)
		if j := req.J; j != nil {
			j.MarkBypass()
			j.Enter(mem.PhaseMissFetch, c.sim.Now())
		}
		return true
	}
	if !c.mm.Write(line) {
		c.stats.QueueRejects++
		return false
	}
	c.countMMWrite()
	c.countDemand(req)
	if j := req.J; j != nil {
		j.MarkBypass()
	}
	c.finishJourney(req, c.sim.Now())
	req.Complete()
	req.Release()
	return true
}

// noCacheDone completes a bypassed demand read from the backing store.
// req.Arrive is its enqueue time (set on intake, the same tick the fetch
// started), so the latency sample matches the closure it replaced.
func (c *Controller) noCacheDone(a any, _ sim.Tick) {
	req := a.(*mem.Request)
	now := c.sim.Now()
	c.sampleReadLatency(now - req.Arrive)
	if j := req.J; j != nil {
		j.Exit(mem.PhaseMissFetch, now)
	}
	c.finishJourney(req, now)
	req.Complete()
	req.Release()
	c.retryUpstream()
}

// countMMRead charges one 64 B line read from the backing store: the
// read count, demand traffic and one activate and column on the DDR5
// meter.
func (c *Controller) countMMRead() {
	c.stats.MMReads++
	c.stats.Traffic.MMDemandBytes += 64
	c.mmMeter.Acts++
	c.mmMeter.Cols++
	c.mmMeter.Bytes += 64
}

// countMMWrite charges one 64 B line written back to the backing store.
func (c *Controller) countMMWrite() {
	c.stats.MMWrites++
	c.stats.Traffic.MMWritebackBytes += 64
	c.mmMeter.Acts++
	c.mmMeter.Cols++
	c.mmMeter.Bytes += 64
}

// missFetch starts the backing-store read for a demand miss and wires
// the completion: respond to the demand, resolve conflict waiters, and
// enqueue the fill (unless bypassed). The transaction rides along as the
// completion's argument (t.req, t.line, t.fill), so the fetch allocates
// no closure; intake paths with no queued transaction pass a bare
// carrier txn.
func (c *Controller) missFetch(t *txn) {
	if r := t.req; r != nil {
		if j := r.J; j != nil {
			j.Enter(mem.PhaseMissFetch, c.sim.Now())
		}
	}
	c.countMMRead()
	t.refs++ // the fetch holds t until missDataEv
	//tdlint:allow poollife — the fetch is a counted reference that missDataEv releases
	if !c.mm.ReadArg(t.line, missDataEv, t) {
		// Backing read queue full: park the fetch. The queue's free
		// event (backing.Memory.OnReadFree) rearms the pump — one wakeup
		// per freed slot instead of a 20 ns polling loop.
		//tdlint:allow poollife — the parked fetch keeps the fetch's counted reference until the pump re-offers it
		c.parkMMRead(pendingMM{line: t.line, fn: missDataEv, arg: t})
	}
}

// missDataEv completes a demand miss's backing fetch.
func missDataEv(a any, _ sim.Tick) {
	t := a.(*txn)
	c := t.cc.ctl
	if r := t.req; r != nil {
		now := c.sim.Now()
		if j := r.J; j != nil {
			j.Exit(mem.PhaseMissFetch, now)
		}
		c.answer(t, now)
	}
	// Data is at the controller: conflict-buffer waiters are served
	// from it directly.
	c.resolveInflight(t.line)
	if t.fill {
		c.dispatchFill(t.line)
	}
	c.retryUpstream()
	t.cc.releaseTxn(t)
}

// answer responds to t's demand read at now and hands the request back
// to its owner: the transaction held its last reference.
func (c *Controller) answer(t *txn, now sim.Tick) {
	req := t.req
	t.req = nil
	c.sampleReadLatency(now - req.Arrive)
	c.finishJourney(req, now)
	req.CompleteGen(t.reqGen)
	req.Release()
}

func (c *Controller) parkMMRead(p pendingMM) {
	c.mmReadWait.Push(p)
	c.stats.MMReadWaits++
	if c.obs != nil {
		c.obs.Inc("cache.mmread.wait")
	}
}

// pumpMMReads re-offers parked backing reads in arrival order.
// Head-of-line blocking is intentional: fetch order is preserved.
func (c *Controller) pumpMMReads() {
	for c.mmReadWait.Len() > 0 {
		p := c.mmReadWait.Front()
		if !c.mm.ReadArg(p.line, p.fn, p.arg) {
			return
		}
		c.mmReadWait.Pop()
	}
}

// markInflight registers a line whose fill is pending.
func (c *Controller) markInflight(line uint64) {
	if _, ok := c.inflight[line]; !ok {
		c.inflight[line] = nil
	}
}

// resolveInflight completes every demand waiting on line's fill data:
// reads are answered from the arriving fill at the controller; writes
// were posted and now set the dirty bit.
func (c *Controller) resolveInflight(line uint64) {
	waiters, ok := c.inflight[line]
	if !ok {
		return
	}
	delete(c.inflight, line)
	c.conflictCount -= len(waiters)
	now := c.sim.Now()
	for _, w := range waiters {
		if j := w.J; j != nil {
			j.Exit(mem.PhaseFill, now)
		}
		c.finishJourney(w, now)
		if w.Kind == mem.Read {
			c.sampleReadLatency(now - w.Arrive)
			w.Complete()
		} else if c.tags != nil {
			c.tags.markDirty(line)
		}
		// The conflict buffer held the waiter's last reference (a write
		// was completed, posted, at intake).
		w.Release()
	}
}

// writeback queues a dirty victim for the backing store.
func (c *Controller) writeback(line uint64) {
	c.wbQ.Push(line)
	c.pumpWritebacks()
}

// pumpWritebacks offers queued victims to the backing store; leftovers
// wait for the write queue's free event (backing.Memory.OnWriteFree).
func (c *Controller) pumpWritebacks() {
	for c.wbQ.Len() > 0 {
		if !c.mm.Write(*c.wbQ.Front()) {
			return
		}
		c.wbQ.Pop()
		c.countMMWrite()
	}
}

// recordUncorrectable charges one uncorrectable (retry-exhausted) error
// against line's set; a set crossing the retirement threshold is retired:
// its dirty lines are written back and all future demands bypass the
// cache (graceful degradation instead of serving corrupt data).
func (c *Controller) recordUncorrectable(line uint64) {
	if c.fault == nil {
		return
	}
	th := c.fault.RetireThreshold()
	if th <= 0 {
		return
	}
	if c.tags.recordError(line) < th {
		return
	}
	c.fault.NoteRetired()
	c.observeFault("set.retired")
	if o := c.obs; o != nil && o.FlightEnabled() {
		o.FlightSnapshot(fmt.Sprintf("set retired (line %#x)", line))
	}
	for _, v := range c.tags.retire(line) {
		c.writeback(v)
	}
}

// retryUpstream tells the system layer queue space may be available.
func (c *Controller) retryUpstream() {
	if c.OnDemandRetry != nil {
		c.OnDemandRetry()
	}
}

// bearRole classifies a line's set for BEAR's set-dueling: one in 64
// sets always fills (fill leader), one in 64 always bypasses (bypass
// leader), the rest follow the selector.
const (
	bearFollower = iota
	bearFillLeader
	bearBypassLeader
)

const bearPSelMax = 512
const bearPSelThreshold = 0

func (c *Controller) bearRole(line uint64) int {
	set := line % c.tags.sets
	switch set & 31 {
	case 0:
		return bearFillLeader
	case 1:
		return bearBypassLeader
	}
	return bearFollower
}

// bearBypassFill implements BEAR's bandwidth-aware bypass with set
// dueling: leader sets permanently fill or permanently bypass, and the
// miss difference between them steers the followers. Cache-averse
// traffic (bypassing costs no hits) bypasses its fills, saving fill
// bandwidth; traffic with reuse keeps filling.
func (c *Controller) bearBypassFill(line uint64) bool {
	switch c.bearRole(line) {
	case bearFillLeader:
		return false
	case bearBypassLeader:
		return true
	}
	return c.bearPSel < bearPSelThreshold
}

// bearObserve trains the duel on every demand outcome. Write misses
// count too: in a tags-with-data design a write-miss costs a full
// tag-read that a write-hit (DCP bypass) avoids, so bypassed fills that
// turn future write-hits into write-misses must show up in the leaders'
// miss counts.
func (c *Controller) bearObserve(line uint64, outcome mem.Outcome) {
	if !c.spec.dcp || outcome.IsHit() {
		return
	}
	switch c.bearRole(line) {
	case bearFillLeader:
		if c.bearPSel > -bearPSelMax {
			c.bearPSel--
		}
	case bearBypassLeader:
		if c.bearPSel < bearPSelMax {
			c.bearPSel++
		}
	}
}

// DrainResidual switches every channel's flush buffer to forced explicit
// draining and kicks a scheduling pass. TDRAM parks dirty victims for
// opportunistic (free-slot or refresh-window) drains, so when demand
// traffic stops, entries can outlive the last scheduled event; forcing
// the explicit StreamRead path makes the drain self-sustaining through
// the ordinary retry arming until the buffers are empty. Terminal: the
// flag is never cleared, so this must only run after the measured phase.
func (c *Controller) DrainResidual() {
	for _, cc := range c.chans {
		cc.forceDrain = true
		if cc.flush.Len() > 0 {
			cc.pass()
		}
	}
}

// Pending reports outstanding internal work (tests and drain checks).
func (c *Controller) Pending() int {
	n := c.wbQ.Len() + c.mmReadWait.Len() + c.conflictCount + c.retryingTxns
	for _, cc := range c.chans {
		n += len(cc.readQ) + len(cc.writeQ) + cc.overflow.Len() + cc.flush.Len()
	}
	return n
}

// DebugState renders the controller's queue occupancies and oldest
// outstanding request — the watchdog's diagnostic dump.
func (c *Controller) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conflicts=%d wbq=%d mmwait=%d retrying=%d",
		c.conflictCount, c.wbQ.Len(), c.mmReadWait.Len(), c.retryingTxns)
	if c.tags != nil && len(c.tags.retired) > 0 {
		fmt.Fprintf(&b, " retired-sets=%d", len(c.tags.retired))
	}
	now := c.sim.Now()
	for i, cc := range c.chans {
		oldest := sim.Tick(-1)
		age := func(t *txn) {
			if a := now - t.arrive; a > oldest {
				oldest = a
			}
		}
		for _, q := range [][]*txn{cc.readQ, cc.writeQ} {
			for _, t := range q {
				age(t)
			}
		}
		for k := 0; k < cc.overflow.Len(); k++ {
			age(*cc.overflow.At(k))
		}
		fmt.Fprintf(&b, "\n  ch%d: readq=%d writeq=%d overflow=%d flush=%d last-commit=%v",
			i, len(cc.readQ), len(cc.writeQ), cc.overflow.Len(), cc.flush.Len(), cc.ch.LastCommit())
		if oldest >= 0 {
			fmt.Fprintf(&b, " oldest-age=%v", oldest)
		}
	}
	return b.String()
}

// String describes the controller.
func (c *Controller) String() string {
	return fmt.Sprintf("dramcache(%v, %d MiB, %d-way)", c.cfg.Design, c.cfg.CapacityBytes>>20, c.cfg.Ways)
}
