// Package backing models the system's main memory: the paper's 2-channel
// DDR5 backing store (Table III) behind per-channel read/write queues
// with FR-FCFS scheduling and write draining.
package backing

import (
	"fmt"

	"tdram/internal/dram"
	"tdram/internal/sim"
	"tdram/internal/stats"
)

// QueueDepth is the per-channel read and write buffer depth (Table III).
const QueueDepth = 64

// drain thresholds: the controller switches to write draining when the
// write queue reaches hiWater and back to read-priority at loWater.
const (
	hiWater = QueueDepth * 3 / 4
	loWater = QueueDepth / 4
)

// Stats aggregates backing-store measurements.
type Stats struct {
	Reads, Writes      uint64
	ReadQueueing       stats.Mean // ns from enqueue to command issue
	ReadLatency        stats.Mean // ns from enqueue to data at controller
	BytesRead          uint64
	BytesWritten       uint64
	QueueFullRejects   uint64
	WriteDrainSwitches uint64
}

// Memory is the DDR5 main memory.
type Memory struct {
	sim   *sim.Simulator
	dev   *dram.Device
	chans []*channelCtl
	stats Stats
	free  *mmReq // recycled request records (zero-alloc steady state)

	// OnReadFree / OnWriteFree, when set, are invoked (via a zero-delay
	// event, outside the scheduler loop) after a previously full read or
	// write queue issues a request. Callers that were refused by
	// Read/Write rearm from these instead of polling.
	OnReadFree  func()
	OnWriteFree func()
}

// New builds the backing store on s with the given device parameters
// (usually dram.DDR5Params).
func New(s *sim.Simulator, p dram.Params) (*Memory, error) {
	dev, err := dram.NewDevice(s, p)
	if err != nil {
		return nil, err
	}
	m := &Memory{sim: s, dev: dev}
	m.chans = make([]*channelCtl, dev.Channels())
	for i := range m.chans {
		m.chans[i] = &channelCtl{mem: m, ch: dev.Channel(i)}
	}
	return m, nil
}

// Stats returns the accumulated measurements.
func (m *Memory) Stats() *Stats { return &m.stats }

// Device exposes the underlying DRAM device (for energy accounting).
func (m *Memory) Device() *dram.Device { return m.dev }

// ReadArg enqueues a read of one line; fn(arg, when) fires when data
// arrives at the controller (nil fn: no completion). It reports false
// (and does nothing) when the target channel's read queue is full — the
// caller must retry. The controllers' miss path passes its transaction
// as arg, so a backing fetch allocates no completion closure.
func (m *Memory) ReadArg(line uint64, fn func(any, sim.Tick), arg any) bool {
	co := m.dev.Coord(line)
	c := m.chans[co.Channel]
	if len(c.readQ) >= QueueDepth {
		m.stats.QueueFullRejects++
		return false
	}
	r := m.getReq()
	r.bank, r.row, r.write, r.arrive, r.fn, r.arg = co.Bank, co.Row, false, m.sim.Now(), fn, arg
	//tdlint:allow poollife — the queue is the record's single owner: service removes it and putReq recycles it in the same tick loop
	c.readQ = append(c.readQ, r)
	c.schedule()
	return true
}

// Write enqueues a posted write of one line (a DRAM-cache fill's eviction
// or writeback). It reports false when the write queue is full.
func (m *Memory) Write(line uint64) bool {
	co := m.dev.Coord(line)
	c := m.chans[co.Channel]
	if len(c.writeQ) >= QueueDepth {
		m.stats.QueueFullRejects++
		return false
	}
	r := m.getReq()
	r.bank, r.row, r.write, r.arrive = co.Bank, co.Row, true, m.sim.Now()
	//tdlint:allow poollife — the queue is the record's single owner: service removes it and putReq recycles it in the same tick loop
	c.writeQ = append(c.writeQ, r)
	c.schedule()
	return true
}

// ReadQueueFree reports whether the read queue routing line has space.
func (m *Memory) ReadQueueFree(line uint64) bool {
	ch, _ := m.dev.Route(line)
	return len(m.chans[ch].readQ) < QueueDepth
}

type mmReq struct {
	bank   int
	row    int
	write  bool
	arrive sim.Tick
	fn     func(any, sim.Tick)
	arg    any
	next   *mmReq // freelist link while pooled
}

// getReq pops a pooled request record (or allocates the pool's first).
// Records recycle through the freelist once issued, so steady-state
// traffic allocates none.
func (m *Memory) getReq() *mmReq {
	r := m.free
	if r == nil {
		return &mmReq{}
	}
	m.free = r.next
	r.next = nil
	return r
}

// putReq clears a finished request record and returns it to the pool.
func (m *Memory) putReq(r *mmReq) {
	*r = mmReq{next: m.free}
	m.free = r
}

// channelCtl schedules one DDR5 channel.
type channelCtl struct {
	mem      *Memory
	ch       *dram.Channel
	readQ    []*mmReq
	writeQ   []*mmReq
	draining bool
	retryAt  sim.Tick // earliest pending retry event, 0 = none
	retryGen uint64   // invalidates superseded retry events

	retryFree *retryEv // recycled retry-event records
}

// retryEv carries one armed retry's generation through the event queue
// without a capturing closure; records recycle through a per-channel
// freelist so retries allocate nothing in steady state.
type retryEv struct {
	c    *channelCtl
	gen  uint64
	next *retryEv
}

// schedule issues every command that can start now and arranges a retry
// at the earliest future feasible time otherwise.
func (c *channelCtl) schedule() {
	now := c.mem.sim.Now()
	for {
		// Drain-mode hysteresis.
		if c.draining {
			if len(c.writeQ) <= loWater {
				c.draining = false
			}
		} else if len(c.writeQ) >= hiWater {
			c.draining = true
			c.mem.stats.WriteDrainSwitches++
		}

		q := &c.readQ
		if c.draining || len(c.readQ) == 0 {
			q = &c.writeQ
		}
		if len(*q) == 0 {
			return
		}

		// FR-FCFS over a close-page stream degenerates to "oldest request
		// whose bank is ready": find the first queue entry issuable now;
		// otherwise remember the earliest future time. The scan is capped
		// at a 16-entry scheduling window, as in real controllers.
		best := -1
		bestAt := sim.Tick(-1)
		for i, r := range *q {
			if i >= 16 {
				break
			}
			op := dram.Op{Kind: dram.OpRead, Bank: r.bank, Row: r.row}
			if r.write {
				op.Kind = dram.OpWrite
			}
			at := c.ch.Earliest(op, now)
			if at == now {
				best = i
				bestAt = at
				break
			}
			if bestAt < 0 || at < bestAt {
				bestAt = at
			}
		}
		if best < 0 {
			c.retry(bestAt)
			return
		}

		r := (*q)[best]
		wasFull := len(*q) >= QueueDepth
		*q = append((*q)[:best], (*q)[best+1:]...)
		if wasFull {
			// The queue just transitioned from full: wake the free-event
			// subscriber on a fresh event so its re-offers cannot re-enter
			// this scheduling loop.
			if r.write && c.mem.OnWriteFree != nil {
				c.mem.sim.ScheduleArg(0, writeFreeEv, c.mem)
			} else if !r.write && c.mem.OnReadFree != nil {
				c.mem.sim.ScheduleArg(0, readFreeEv, c.mem)
			}
		}
		op := dram.Op{Kind: dram.OpRead, Bank: r.bank, Row: r.row}
		if r.write {
			op.Kind = dram.OpWrite
		}
		iss := c.ch.Commit(op, bestAt)
		st := &c.mem.stats
		if r.write {
			st.Writes++
			st.BytesWritten += 64
		} else {
			st.Reads++
			st.BytesRead += 64
			st.ReadQueueing.AddTick(bestAt - r.arrive)
			st.ReadLatency.AddTick(iss.DataEnd - r.arrive)
			if r.fn != nil {
				c.mem.sim.ScheduleArgAt(iss.DataEnd, r.fn, r.arg)
			}
		}
		c.mem.putReq(r)
	}
}

// readFreeEv and writeFreeEv deliver a queue's free event; schedule arms
// them only while the matching hook is set.
func readFreeEv(a any, _ sim.Tick) {
	if m := a.(*Memory); m.OnReadFree != nil {
		m.OnReadFree()
	}
}

func writeFreeEv(a any, _ sim.Tick) {
	if m := a.(*Memory); m.OnWriteFree != nil {
		m.OnWriteFree()
	}
}

func (c *channelCtl) retry(at sim.Tick) {
	if at <= c.mem.sim.Now() {
		panic(fmt.Sprintf("backing: retry at %v not in the future", at))
	}
	if c.retryAt != 0 && c.retryAt <= at {
		return // an earlier retry is already scheduled
	}
	// Each armed retry supersedes any previously scheduled one; stale
	// events check the generation and die silently, so retries cannot
	// multiply.
	c.retryAt = at
	c.retryGen++
	ev := c.retryFree
	if ev == nil {
		ev = &retryEv{c: c}
	} else {
		c.retryFree = ev.next
	}
	ev.gen = c.retryGen
	c.mem.sim.ScheduleArgAt(at, channelRetry, ev)
}

// channelRetry fires an armed retry: stale generations recycle their
// record and die, the live one re-runs the scheduling loop.
func channelRetry(a any, _ sim.Tick) {
	ev := a.(*retryEv)
	c := ev.c
	live := ev.gen == c.retryGen
	ev.next = c.retryFree
	c.retryFree = ev
	if !live {
		return
	}
	c.retryAt = 0
	c.schedule()
}

// Pending reports queued requests across channels (tests/diagnostics).
func (m *Memory) Pending() (reads, writes int) {
	for _, c := range m.chans {
		reads += len(c.readQ)
		writes += len(c.writeQ)
	}
	return
}

// DebugState renders per-channel queue occupancies and the oldest queued
// request's age — the watchdog's diagnostic dump.
func (m *Memory) DebugState() string {
	s := ""
	now := m.sim.Now()
	for i, c := range m.chans {
		oldest := sim.Tick(-1)
		for _, q := range [][]*mmReq{c.readQ, c.writeQ} {
			for _, r := range q {
				if age := now - r.arrive; age > oldest {
					oldest = age
				}
			}
		}
		if i > 0 {
			s += "\n"
		}
		s += fmt.Sprintf("  ch%d: readq=%d writeq=%d draining=%v", i, len(c.readQ), len(c.writeQ), c.draining)
		if oldest >= 0 {
			s += fmt.Sprintf(" oldest-age=%v", oldest)
		}
	}
	return s
}
