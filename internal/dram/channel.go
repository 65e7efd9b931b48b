package dram

import (
	"fmt"

	"tdram/internal/obs"
	"tdram/internal/sim"
)

// OpKind selects the command sequence an access issues on a channel.
type OpKind uint8

const (
	// OpRead is a close-page read access (ACT+RD+auto-PRE, or the
	// combined ActRd on tag-enhanced devices when Op.Tag is set).
	OpRead OpKind = iota
	// OpWrite is a close-page write access (ActWr when Op.Tag is set).
	OpWrite
	// OpProbe touches only the tag bank and the HM bus — the paper's
	// early tag probing (§III-E). Requires a tag-enhanced device.
	OpProbe
	// OpStreamRead occupies the DQ bus in the read direction without
	// touching any bank — draining the on-die flush/victim buffer to the
	// controller with explicit commands.
	OpStreamRead
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpProbe:
		return "probe"
	case OpStreamRead:
		return "stream"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op describes one access for Earliest/Commit.
type Op struct {
	Kind  OpKind
	Bank  int      // data bank (and paired tag bank); ignored by OpStreamRead
	Row   int      // row address; used by the open-page policy only
	Tag   bool     // also activate the tag bank and use the HM bus
	Burst sim.Tick // DQ occupancy; 0 means the device default (no DQ for OpProbe)
}

// Issue reports the committed timing of one access.
type Issue struct {
	At        sim.Tick // command time on the CA bus
	TagInt    sim.Tick // internal hit/miss known (gates column decode); 0 if no tag access
	HMAt      sim.Tick // hit/miss result at the controller on the HM bus; 0 if no tag access
	DataStart sim.Tick // first DQ tick; 0 if no data reservation
	DataEnd   sim.Tick // one past the last DQ tick; 0 if no data reservation
	BankFree  sim.Tick // when the data bank may be activated again; 0 for probes/streams
}

// ChannelStats counts device activity for reporting and the energy model.
type ChannelStats struct {
	Activates    uint64 // data-bank activations
	TagActivates uint64 // tag-bank activations (incl. probes)
	Probes       uint64
	Refreshes    uint64
	HMTransfers  uint64
	RowHits      uint64 // open-page policy: column ops to an open row
	Precharges   uint64 // open-page policy: explicit row-conflict precharges
	DQBusyTicks  uint64 // cumulative DQ-bus reservation, in ticks (utilization)
	HMBusyTicks  uint64 // cumulative HM-bus reservation, in ticks
}

// Channel is one independent channel of a device: its CA/DQ/HM buses and
// bank timing state. All methods must be called from the simulation
// goroutine.
type Channel struct {
	sim   *sim.Simulator
	p     *Params
	index int

	// The three serial buses. CA carries commands to the device and HM
	// tag results back, one direction each; only DQ turns around.
	ca, dq, hm Bus

	bankNext   []sim.Tick // earliest next ACT per data bank
	tagNext    []sim.Tick // earliest next ACT per tag bank
	lastAct    sim.Tick   // tRRD reference
	lastTagAct sim.Tick   // tRRD_TAG reference
	// actWindow holds the last eight ACT times as a ring. The paper's
	// tXAW (Table III: 16 ns) is modeled as an eight-activate window, as
	// in gem5's HBM configurations: a four-activate window of 16 ns would
	// cap the channel at half its 32 GiB/s peak, which contradicts the
	// device's stated bandwidth.
	actWindow   [8]sim.Tick
	actWindowAt int

	lastCommit sim.Tick
	commits    uint64

	// open holds per-bank row-buffer state when the open-page policy is
	// enabled (see openpage.go); nil under close-page.
	open []openBank

	stats ChannelStats

	// obs is the observability hook; nil (the default) disables
	// instrumentation at the cost of one branch per commit.
	obs    *obs.Observer
	tracks channelTracks
	// flightUnit names this channel in flight-recorder command lines
	// ("tdram.ch0"); precomputed at SetObserver so the per-commit hook
	// never formats.
	flightUnit string

	// OnRefresh, when set, is invoked at the start of each refresh with
	// the window during which banks are unavailable but the DQ bus is
	// idle — the flush-buffer drain opportunity (§III-D2).
	OnRefresh func(start, end sim.Tick)
}

// NewChannel builds a channel for the given device parameters and starts
// its refresh schedule.
func NewChannel(s *sim.Simulator, p *Params, index int) *Channel {
	const distantPast = sim.Tick(-1) << 40
	c := &Channel{
		sim:        s,
		p:          p,
		index:      index,
		dq:         Bus{rtw: p.TRTW, wtr: p.TWTR},
		bankNext:   make([]sim.Tick, p.Banks),
		tagNext:    make([]sim.Tick, p.Banks),
		lastAct:    distantPast,
		lastTagAct: distantPast,
	}
	for i := range c.actWindow {
		c.actWindow[i] = distantPast
	}
	if p.TREFI > 0 && p.TRFC > 0 {
		c.sim.ScheduleDaemonArg(p.TREFI, refreshEv, c)
	}
	return c
}

// Params exposes the device parameters.
func (c *Channel) Params() *Params { return c.p }

// Stats returns a copy of the activity counters.
func (c *Channel) Stats() ChannelStats { return c.stats }

// LastCommit reports the time of the most recent committed command
// (watchdog diagnostics: a stale value pinpoints a silent channel).
func (c *Channel) LastCommit() sim.Tick { return c.lastCommit }

// refresh performs an all-bank refresh and reschedules itself.
func (c *Channel) refresh() {
	now := c.sim.Now()
	end := now + c.p.TRFC
	for i := range c.bankNext {
		if c.bankNext[i] < end {
			c.bankNext[i] = end
		}
	}
	for i := range c.tagNext {
		if c.tagNext[i] < end {
			c.tagNext[i] = end
		}
	}
	c.refreshOpen(end)
	c.stats.Refreshes++
	if c.obs != nil {
		c.obs.Slice(c.tracks.refresh, "refresh", now, end)
	}
	if c.OnRefresh != nil {
		c.OnRefresh(now, end)
	}
	c.sim.ScheduleDaemonArg(c.p.TREFI, refreshEv, c)
}

// refreshEv dispatches the periodic refresh without allocating a
// method-value closure on every self-reschedule.
func refreshEv(a any, _ sim.Tick) { a.(*Channel).refresh() }

// burst returns the DQ occupancy for op.
func (c *Channel) burst(op Op) sim.Tick {
	if op.Kind == OpProbe {
		return 0
	}
	if op.Burst > 0 {
		return op.Burst
	}
	return c.p.TBURST
}

// dataOffset returns the fixed command-to-DQ offset for op, and the
// transfer direction.
func (c *Channel) dataOffset(op Op) (sim.Tick, Dir) {
	switch op.Kind {
	case OpWrite:
		return c.p.WriteDataOffset(), DirWrite
	case OpStreamRead:
		return 0, DirRead
	default:
		return c.p.ReadDataOffset(), DirRead
	}
}

// usesTag reports whether op touches the tag bank and HM bus.
func (c *Channel) usesTag(op Op) bool {
	return op.Kind == OpProbe || (op.Tag && c.p.HasTagBanks())
}

// fawBound returns the earliest ACT time satisfying the activate window.
func (c *Channel) fawBound() sim.Tick {
	if c.p.TFAW <= 0 {
		return 0
	}
	// The oldest tracked ACT bounds the next one.
	oldest := c.actWindow[c.actWindowAt]
	return oldest + c.p.TFAW
}

// Earliest computes the earliest command time >= after at which op can be
// issued with every resource available. It does not reserve anything.
func (c *Channel) Earliest(op Op, after sim.Tick) sim.Tick {
	if op.Kind == OpProbe && !c.p.HasTagBanks() {
		panic("dram: probe on device without tag banks")
	}
	if c.p.OpenPage && (op.Kind == OpRead || op.Kind == OpWrite) {
		return c.earliestOpen(op, after)
	}
	t := after
	burst := c.burst(op)
	off, dir := c.dataOffset(op)
	tag := c.usesTag(op)
	// Bank-state bounds are static lower bounds: the search below only
	// ever advances t, so once applied here they can never re-bind and
	// need not be rechecked inside the bus-convergence loop.
	if op.Kind == OpRead || op.Kind == OpWrite {
		if b := c.bankNext[op.Bank]; t < b {
			t = b
		}
		if b := c.lastAct + c.p.TRRD; t < b {
			t = b
		}
		if b := c.fawBound(); t < b {
			t = b
		}
	}
	var tagOff sim.Tick
	if tag {
		if b := c.tagNext[op.Bank]; t < b {
			t = b
		}
		if b := c.lastTagAct + c.p.TRRDTag; t < b {
			t = b
		}
		tagOff = c.p.TagInternalOffset()
	}
	for iter := 0; ; iter++ {
		if iter > 256 {
			panic(fmt.Sprintf("dram: %s: Earliest did not converge for %v", c.p.Name, op.Kind))
		}
		start := t
		// CA slot.
		if at := c.ca.FirstFree(t, c.p.TCMD, DirWrite); at > t {
			t = at
		}
		// DQ slot at fixed offset.
		if burst > 0 {
			if s := c.dq.FirstFree(t+off, burst, dir); s > t+off {
				t = s - off
			}
		}
		// HM slot.
		if tag {
			hmAt := t + tagOff
			if s := c.hm.FirstFree(hmAt, c.p.THMBus, DirRead); s > hmAt {
				t += s - hmAt
			}
		}
		if t == start {
			return t
		}
	}
}

// Commit reserves all resources for op at command time at, which must be
// feasible (use Earliest first) and must not precede any earlier commit —
// controllers issue commands in simulation-time order.
func (c *Channel) Commit(op Op, at sim.Tick) Issue {
	if at < c.lastCommit {
		panic(fmt.Sprintf("dram: %s: commit at %v before previous commit %v", c.p.Name, at, c.lastCommit))
	}
	if got := c.Earliest(op, at); got != at {
		panic(fmt.Sprintf("dram: %s: commit %v at infeasible time %v (earliest %v)", c.p.Name, op.Kind, at, got))
	}
	c.lastCommit = at
	c.commits++
	c.ca.Release(at)
	c.dq.Release(at)
	c.hm.Release(at)

	if c.p.OpenPage && (op.Kind == OpRead || op.Kind == OpWrite) {
		iss := c.commitOpen(op, at)
		if c.obs != nil {
			c.observeCommit(op, iss)
		}
		return iss
	}

	iss := Issue{At: at}
	c.ca.Reserve(at, c.p.TCMD, DirWrite)

	burst := c.burst(op)
	off, dir := c.dataOffset(op)
	if burst > 0 {
		c.dq.Reserve(at+off, burst, dir)
		iss.DataStart = at + off
		iss.DataEnd = at + off + burst
		c.stats.DQBusyTicks += uint64(burst)
	}

	switch op.Kind {
	case OpRead:
		c.bankNext[op.Bank] = at + c.p.ReadBankBusy()
		iss.BankFree = c.bankNext[op.Bank]
		c.recordAct(at)
	case OpWrite:
		c.bankNext[op.Bank] = at + c.p.WriteBankBusy()
		iss.BankFree = c.bankNext[op.Bank]
		c.recordAct(at)
	}

	if c.usesTag(op) {
		c.tagNext[op.Bank] = at + c.p.TRCTag
		c.lastTagAct = at
		c.stats.TagActivates++
		hmAt := at + c.p.TagInternalOffset()
		c.hm.Reserve(hmAt, c.p.THMBus, DirRead)
		c.stats.HMTransfers++
		c.stats.HMBusyTicks += uint64(c.p.THMBus)
		iss.TagInt = hmAt
		iss.HMAt = at + c.p.HMOffset()
		if op.Kind == OpProbe {
			c.stats.Probes++
		}
	}
	if c.obs != nil {
		c.observeCommit(op, iss)
	}
	return iss
}

func (c *Channel) recordAct(at sim.Tick) {
	c.lastAct = at
	c.actWindow[c.actWindowAt] = at
	c.actWindowAt = (c.actWindowAt + 1) % len(c.actWindow)
	c.stats.Activates++
}
