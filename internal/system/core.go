package system

import (
	"tdram/internal/cache"
	"tdram/internal/mem"
	"tdram/internal/ring"
	"tdram/internal/sim"
	"tdram/internal/workload"
)

// core is one request-generating CPU: an in-order front end with
// non-blocking misses up to MaxOutstanding, the paper's stand-in for an
// out-of-order core's memory-level parallelism. Each access pays a think
// time (modeling the non-memory instructions between memory operations)
// plus the on-chip cache latency; L2 misses become DRAM-cache read
// demands and dirty L2 victims become write demands.
type core struct {
	sys    *System
	id     int
	stream *workload.Stream
	hier   *cache.Hierarchy
	think  sim.Tick

	target      int
	executed    int
	outstanding int
	misses      uint64

	// Backpressure bookkeeping.
	pendingWBs  ring.Ring[*mem.Request] // writebacks rejected by the controller
	pendingRead *mem.Request            // demand read rejected by the controller
	waitRetry   bool
	wakeQueued  bool
	blocked     bool // at MaxOutstanding, waiting for a completion
	tickQueued  bool

	// onMiss is the read-completion callback, bound once at construction
	// so issuing a demand read does not allocate a fresh closure.
	onMiss func(*mem.Request)

	// reqs recycles this core's demands: the controller releases each
	// one back here once it holds no reference to it.
	reqs  mem.RequestPool
	reqID uint64
}

// missDone is the prebound OnDone target for this core's demand reads.
func (c *core) missDone(*mem.Request) { c.completeMiss() }

// beginPhase arms the core for n more accesses.
func (c *core) beginPhase(n int) {
	c.target = n
	c.executed = 0
}

// idle reports whether the core finished its phase with no loose ends.
func (c *core) idle() bool {
	return c.executed >= c.target && c.outstanding == 0 &&
		c.pendingWBs.Len() == 0 && c.pendingRead == nil
}

// newRequest takes a demand for line from the core's pool.
func (c *core) newRequest(line uint64, kind mem.Kind) *mem.Request {
	c.reqID++
	req := c.reqs.Get()
	req.ID, req.Addr, req.Kind, req.Core = c.reqID, line*mem.LineSize, kind, c.id
	if o := c.sys.obs; o != nil {
		req.J = o.StartJourney(c.id, line, kind == mem.Write)
	}
	return req
}

// emitWriteback receives dirty L2 victims from the hierarchy.
func (c *core) emitWriteback(line uint64) {
	req := c.newRequest(line, mem.Write)
	if c.pendingWBs.Len() > 0 || !c.sys.ctl.Enqueue(req) {
		c.pendingWBs.Push(req)
		c.waitRetry = true
	}
}

// scheduleTick arms the next access after delay.
func (c *core) scheduleTick(delay sim.Tick) {
	if c.tickQueued {
		return
	}
	c.tickQueued = true
	c.sys.sim.ScheduleArg(delay, coreTickEv, c)
}

// coreTickEv fires a core's next access without allocating a closure per
// scheduled tick — the single hottest event in every experiment.
func coreTickEv(a any, _ sim.Tick) {
	c := a.(*core)
	c.tickQueued = false
	c.tick()
}

// tick executes one access (or clears backpressure) and schedules the
// next.
func (c *core) tick() {
	// Drain rejected work first, in order.
	for c.pendingWBs.Len() > 0 {
		if !c.sys.ctl.Enqueue(*c.pendingWBs.Front()) {
			c.waitRetry = true
			return
		}
		c.pendingWBs.Pop()
	}
	if c.pendingRead != nil {
		if !c.sys.ctl.Enqueue(c.pendingRead) {
			c.waitRetry = true
			return
		}
		c.outstanding++
		c.pendingRead = nil
		c.scheduleTick(c.think)
		return
	}
	if c.executed >= c.target {
		return
	}
	if c.outstanding >= c.sys.cfg.MaxOutstanding {
		c.blocked = true
		return
	}

	line, store, thinkNS := c.stream.Next()
	res := c.hier.Access(line, store)
	c.executed++
	c.sys.wd.Progress()
	delay := sim.NS(thinkNS) + res.Latency

	if res.Missed {
		c.misses++
		req := c.newRequest(res.MissLine, mem.Read)
		req.OnDone = c.onMiss
		if c.sys.ctl.Enqueue(req) {
			c.outstanding++
		} else {
			c.pendingRead = req
			c.waitRetry = true
			return
		}
	}
	c.scheduleTick(delay)
}

// completeMiss handles a returning DRAM-cache read.
func (c *core) completeMiss() {
	c.outstanding--
	c.sys.wd.Progress()
	if c.blocked {
		c.blocked = false
		c.scheduleTick(0)
	}
}
