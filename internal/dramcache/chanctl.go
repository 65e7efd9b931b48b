package dramcache

import (
	"fmt"

	"tdram/internal/dram"
	"tdram/internal/mem"
	"tdram/internal/obs"
	"tdram/internal/ring"
	"tdram/internal/sim"
)

// txnKind identifies the controller-internal transaction types.
type txnKind uint8

const (
	// txnRead is a demand read performing (or having had) a tag check.
	txnRead txnKind = iota
	// txnWriteTagRead is the CL-family DRAM read issued on behalf of a
	// write demand to learn hit/miss and fetch a potential dirty victim.
	txnWriteTagRead
	// txnWrite is a data write: CL-family demand data after its tag
	// read, a BEAR bypassed write-hit, an Ideal write, or an NDC/TDRAM
	// ActWr (which performs its own tag check at commit).
	txnWrite
	// txnFill writes fetched miss data into the cache; no tag-state
	// transition (the miss already installed the line).
	txnFill
	// txnVictimRead fetches a dirty victim's data for writeback (Ideal).
	txnVictimRead
)

// txn is one queued controller transaction. It carries its owning
// channel controller so it can ride through the event kernel as a
// typed-argument callback's argument — the hot completion paths schedule
// (package function, *txn) pairs instead of capturing closures, which
// keeps the per-event allocation count at zero.
//
// Transactions recycle through a per-channel freelist (getTxn,
// releaseTxn). refs counts the holders: each queue slot, each pending
// event or backing fetch that carries the transaction, and a dependent's
// dep link. Every holder releases exactly once, and the last release
// returns the record to the freelist.
//
// Pointer- and word-sized fields lead and the narrow ones trail so the
// struct packs without interior padding; internal/analysis's fieldalign
// test pins this.
type txn struct {
	cc     *chanCtl
	req    *mem.Request // nil for fills and victim reads, and once the request is handed back
	dep    *txn         // issue only after dep.done (Ideal write-miss-dirty)
	next   *txn         // freelist link while pooled
	line   uint64
	victim uint64
	bank   int
	row    int
	arrive sim.Tick

	// predDataAt is predictor bookkeeping (§V-D): a predicted-miss read
	// starts its main-memory fetch in parallel with the tag check.
	predDataAt sim.Tick

	// reqGen is req's generation when the transaction took it: the
	// completion goes through it, so a stale request reference panics.
	reqGen uint32

	kind    txnKind
	outcome mem.Outcome

	// fill records whether the backing fetch's data should be written
	// into the cache when it arrives (false for BEAR's bypassed fills).
	fill bool

	outcomeKnown bool

	probed        bool // TDRAM: outcome fixed by an early tag probe
	probeResolved bool // the probe's HM result reached the controller

	done bool

	// Probed miss-dirty coordination: the fill may only be written after
	// the victim was read out and the backing data arrived.
	mmArrived  bool
	victimDone bool

	predStarted bool
	tagSaidMiss bool

	// retries counts ECC-triggered re-issues of this transaction.
	retries uint8

	refs uint8 // holders still referencing the transaction
}

// flushEntry is one victim line parked in the on-die flush buffer,
// carrying its own ECC retry count.
type flushEntry struct {
	line    uint64
	retries uint8
}

// chanCtl schedules one cache-device channel: its read and write queues,
// flush/victim buffer, probing, and drain modes.
type chanCtl struct {
	ctl   *Controller
	ch    *dram.Channel
	index int

	readQ    []*txn
	writeQ   []*txn
	overflow ring.Ring[*txn] // fills/writes awaiting write-queue space

	flush ring.Ring[flushEntry] // victim lines parked in the on-die flush buffer

	draining bool
	// forceDrain makes the explicit StreamRead path eligible whenever the
	// flush buffer is non-empty, regardless of the design's high-water
	// policy — the end-of-run residual drain (Controller.DrainResidual).
	forceDrain bool
	retryAt    sim.Tick
	retryGen   uint64
	retryFree  *retryEv // recycled retry-event records
	lineFree   *lineEv  // recycled deferred-writeback records
	txnFree    *txn     // recycled transactions

	// Perfetto tracks; zero when tracing is off (see observe.go).
	trkReadQ  obs.TrackID
	trkWriteQ obs.TrackID
	trkFlush  obs.TrackID
	trkEvents obs.TrackID
}

func (cc *chanCtl) cfg() *Config      { return &cc.ctl.cfg }
func (cc *chanCtl) spec() *designSpec { return &cc.ctl.spec }
func (cc *chanCtl) now() sim.Tick     { return cc.ctl.sim.Now() }
func (cc *chanCtl) st() *Stats        { return &cc.ctl.stats }

// getTxn takes a cleared transaction of the given kind for line off the
// channel's freelist, allocating only when the freelist is empty. req
// (nil for fills and victim reads) rides along with its generation.
// The caller hands the first reference to a holder (push, at, a fetch).
func (cc *chanCtl) getTxn(kind txnKind, req *mem.Request, line uint64, bank int) *txn {
	t := cc.txnFree
	if t == nil {
		t = &txn{cc: cc}
	} else {
		cc.txnFree = t.next
		t.next = nil
	}
	t.kind, t.line, t.bank, t.row, t.arrive = kind, line, bank, cc.rowOf(line), cc.now()
	if req != nil {
		t.req, t.reqGen = req, req.Gen()
	}
	return t
}

// releaseTxn drops one holder's reference to t; the last one clears the
// record onto the freelist (dropping its own dep link in turn). The
// caller must not touch t afterwards.
func (cc *chanCtl) releaseTxn(t *txn) {
	if t.refs == 0 {
		panic("dramcache: transaction released more often than held")
	}
	if t.refs--; t.refs > 0 {
		return
	}
	if d := t.dep; d != nil {
		d.cc.releaseTxn(d)
	}
	*t = txn{cc: cc, next: cc.txnFree}
	cc.txnFree = t
}

// push appends t to a queue; the queue slot holds a reference until the
// scheduling pass removes and issues it.
func (cc *chanCtl) push(q *[]*txn, t *txn) {
	t.refs++
	//tdlint:allow poollife — the slot is a counted reference: pass removes t, issues it and only then releases it
	*q = append(*q, t)
}

// at schedules fn(t) at when; the pending event holds a reference that
// fn releases when it fires.
func (cc *chanCtl) at(when sim.Tick, fn func(any, sim.Tick), t *txn) {
	t.refs++
	//tdlint:allow poollife — the event is a counted reference: every handler ends by releasing it
	cc.ctl.sim.ScheduleArgAt(when, fn, t)
}

// acceptRead admits a demand read (design-specific intake).
func (cc *chanCtl) acceptRead(req *mem.Request, bank int) bool {
	line := req.Line()
	if cc.spec().tags == tagsOracle {
		return cc.acceptReadIdeal(req, line, bank)
	}
	if len(cc.readQ) >= ReadQueueDepth {
		return false
	}
	t := cc.getTxn(txnRead, req, line, bank)
	if cc.ctl.predictor != nil {
		if !cc.ctl.predictor.Predict(req.Core, line) && cc.ctl.mm.ReadQueueFree(line) {
			// Predicted miss: start the backing fetch in parallel.
			t.predStarted = true
			cc.st().PredictorMissStarts++
			cc.ctl.countMMRead()
			t.refs++ // the fetch holds t until predictorDataEv
			//tdlint:allow poollife — the fetch is a counted reference that predictorDataEv releases
			cc.ctl.mm.ReadArg(line, predictorDataEv, t)
			if j := req.J; j != nil {
				j.Enter(mem.PhaseMissFetch, cc.now())
			}
		}
	}
	cc.push(&cc.readQ, t)
	cc.pass()
	return true
}

// acceptReadIdeal performs the zero-latency tag check at intake.
func (cc *chanCtl) acceptReadIdeal(req *mem.Request, line uint64, bank int) bool {
	// Reads that will need a queue slot must find one.
	if len(cc.readQ) >= ReadQueueDepth {
		return false
	}
	outcome, victim, _ := cc.ctl.tags.access(line, false, true)
	cc.st().Outcomes.Add(outcome)
	cc.observeOutcome(outcome, cc.now())
	cc.ctl.sampleTagCheck(0)
	if j := req.J; j != nil {
		j.Note(outcome)
	}
	switch outcome {
	case mem.ReadHit:
		t := cc.getTxn(txnRead, req, line, bank)
		t.outcomeKnown, t.outcome = true, outcome
		cc.push(&cc.readQ, t)
		cc.pass()
	case mem.ReadMissClean, mem.ReadMissDirty:
		// A queue-less transaction carries the miss through its fetch.
		cc.ctl.markInflight(line)
		t := cc.getTxn(txnRead, req, line, bank)
		t.fill = true
		cc.ctl.missFetch(t)
		if outcome == mem.ReadMissDirty {
			cc.push(&cc.readQ, cc.getTxn(txnVictimRead, nil, victim, cc.bankOf(victim)))
			cc.pass()
		}
	}
	return true
}

// acceptWrite admits a (posted) demand write into the channel's queues.
// The caller runs the scheduling pass once it has counted the demand:
// the pass may issue the write's data write, which finishes its journey.
func (cc *chanCtl) acceptWrite(req *mem.Request, bank int) bool {
	line := req.Line()
	switch cc.spec().tags {
	case tagsInDevice:
		// The ActWr performs its own tag check at commit.
		if len(cc.writeQ) >= WriteQueueDepth {
			return false
		}
		cc.push(&cc.writeQ, cc.getTxn(txnWrite, req, line, bank))
		return true
	case tagsOracle:
		if len(cc.writeQ) >= WriteQueueDepth {
			return false
		}
		outcome, victim, _ := cc.ctl.tags.access(line, true, true)
		cc.st().Outcomes.Add(outcome)
		cc.observeOutcome(outcome, cc.now())
		// The victim readout needs a read-queue slot. The check comes
		// before any transaction is taken, so a rejected write holds none.
		if outcome == mem.WriteMissDirty && len(cc.readQ) >= ReadQueueDepth {
			return false
		}
		w := cc.getTxn(txnWrite, req, line, bank)
		w.outcomeKnown, w.outcome = true, outcome
		if outcome == mem.WriteMissDirty {
			v := cc.getTxn(txnVictimRead, nil, victim, cc.bankOf(victim))
			v.refs++ // w's dep link, released when w is
			//tdlint:allow poollife — the dep link is a counted reference that releaseTxn drops when w is recycled
			w.dep = v
			cc.push(&cc.readQ, v)
		}
		cc.push(&cc.writeQ, w)
		return true
	}
	if cc.spec().dcp && cc.ctl.tags.probe(line).Hit {
		// DRAM-cache-presence bits: write-hits skip the tag-check read.
		if len(cc.writeQ) >= WriteQueueDepth {
			return false
		}
		// The DCP bit answers the write-hit without any tag read, so no
		// tag-check latency sample exists for this demand.
		outcome, _, _ := cc.ctl.tags.access(line, true, true)
		cc.st().Outcomes.Add(outcome)
		cc.observeOutcome(outcome, cc.now())
		cc.ctl.bearObserve(line, outcome)
		w := cc.getTxn(txnWrite, req, line, bank)
		w.outcomeKnown, w.outcome = true, outcome
		cc.push(&cc.writeQ, w)
		return true
	}
	return cc.acceptWriteTagRead(req, line, bank)
}

// acceptWriteTagRead queues the CL-family tag-check read for a write.
func (cc *chanCtl) acceptWriteTagRead(req *mem.Request, line uint64, bank int) bool {
	if len(cc.readQ) >= ReadQueueDepth {
		return false
	}
	cc.st().WriteTagReads++
	cc.push(&cc.readQ, cc.getTxn(txnWriteTagRead, req, line, bank))
	return true
}

// enqueueFill queues the write that installs fetched miss data.
func (cc *chanCtl) enqueueFill(line uint64, bank int) {
	cc.enqueueWriteTxn(cc.getTxn(txnFill, nil, line, bank))
}

// bankOf routes a line within this channel (victims share the set, hence
// the channel, of the line that displaced them).
func (cc *chanCtl) bankOf(line uint64) int {
	_, bank := cc.ctl.dev.Route(line)
	return bank
}

// rowOf decodes a line's row (open-page scheduling).
func (cc *chanCtl) rowOf(line uint64) int {
	return cc.ctl.dev.Coord(line).Row
}

// op builds the device operation for a transaction.
func (cc *chanCtl) op(t *txn) dram.Op {
	sp := cc.spec()
	tag := sp.tags == tagsInDevice
	switch t.kind {
	case txnRead, txnWriteTagRead, txnVictimRead:
		return dram.Op{Kind: dram.OpRead, Bank: t.bank, Row: t.row, Tag: tag, Burst: sp.readBurst}
	default: // txnWrite, txnFill
		return dram.Op{Kind: dram.OpWrite, Bank: t.bank, Row: t.row, Tag: tag, Burst: sp.writeBurst}
	}
}

// issuable reports whether t may issue (dependencies and flush-buffer
// space permitting).
func (cc *chanCtl) issuable(t *txn) bool {
	if t.dep != nil && !t.dep.done {
		return false
	}
	if t.probed && !t.probeResolved {
		// The controller acts on the probe's HM result before spending a
		// MAIN slot on a request it may be about to retire.
		return false
	}
	if t.kind == txnWrite && cc.spec().tags == tagsInDevice && !t.outcomeKnown {
		// An ActWr that would displace a dirty victim needs flush space.
		pr := cc.ctl.tags.probe(t.line)
		if !pr.Hit && pr.Dirty && cc.flush.Len() >= cc.cfg().FlushEntries {
			if r := t.req; r != nil {
				if j := r.J; j != nil {
					// Enter dedups, so repeated scheduling passes keep the
					// first stall tick; issueWrite exits the phase.
					j.Enter(mem.PhaseFlushStall, cc.now())
				}
			}
			return false
		}
	}
	return true
}

// pass is the scheduling loop: issue every command that can start now,
// then arrange a retry at the earliest future opportunity.
func (cc *chanCtl) pass() {
	now := cc.now()
	// Move overflowed fills into freed write-queue slots.
	for cc.overflow.Len() > 0 && len(cc.writeQ) < WriteQueueDepth {
		//tdlint:allow poollife — the overflow slot's counted reference moves with the transaction into the write queue
		cc.writeQ = append(cc.writeQ, cc.overflow.Pop())
	}
	issued := false
	// future is the earliest future issue time seen by the final
	// (non-issuing) scan round below; earlier rounds' values are stale the
	// moment a commit changes the channel state, so each round overwrites.
	future := sim.Tick(-1)
	for {
		if cc.draining {
			if len(cc.writeQ) <= writeLoWater {
				cc.draining = false
			}
		} else if len(cc.writeQ) >= writeHiWater {
			cc.draining = true
		}

		// Forced victim-buffer drains: NDC drains with explicit RES
		// commands once the buffer passes 3/4; TDRAM only when full
		// (it prefers free slots, §III-D2).
		if cc.needExplicitDrain() && cc.tryExplicitDrain(now) {
			issued = true
			continue
		}

		primary, secondary := &cc.readQ, &cc.writeQ
		if cc.draining || len(cc.readQ) == 0 {
			primary, secondary = &cc.writeQ, &cc.readQ
		}
		t, fp := cc.firstIssuable(*primary, now)
		if t != nil {
			cc.remove(primary, t)
			cc.issue(t, now)
			cc.releaseTxn(t) // the queue slot's reference
			issued = true
			continue
		}
		t, fs := cc.firstIssuable(*secondary, now)
		if t != nil {
			cc.remove(secondary, t)
			cc.issue(t, now)
			cc.releaseTxn(t)
			issued = true
			continue
		}
		// No MAIN command fits: a TDRAM controller uses the free CA/HM
		// slot for an early tag probe (§III-E).
		if cc.cfg().ProbeEnabled && cc.tryProbe(now) {
			issued = true
			continue
		}
		// Nothing committed this round, so the per-queue futures computed
		// by the two scans above describe the channel's current state —
		// retry arming reuses them rather than re-running both scans.
		future = fp
		if future < 0 || (fs >= 0 && fs < future) {
			future = fs
		}
		break
	}
	cc.scheduleRetry(now, future)
	cc.observeQueues()
	if issued {
		cc.ctl.retryUpstream()
	}
}

// schedWindow caps how deep the FR-FCFS arbiter looks into a queue, as
// real controllers' scheduling windows do; it also bounds the cost of a
// scheduling pass.
const schedWindow = 16

// firstIssuable returns the oldest transaction issuable exactly now,
// looking at most schedWindow candidates deep. Alongside it reports the
// earliest future issue time among the candidates scanned before it
// returned (-1 when none): when no transaction can issue now, that is
// the queue's retry bound, already computed — re-deriving it would
// repeat every Earliest call on unchanged channel state.
func (cc *chanCtl) firstIssuable(q []*txn, now sim.Tick) (*txn, sim.Tick) {
	future := sim.Tick(-1)
	seen := 0
	for _, t := range q {
		if !cc.issuable(t) {
			continue
		}
		if seen++; seen > schedWindow {
			return nil, future
		}
		at := cc.ch.Earliest(cc.op(t), now)
		if at == now {
			return t, future
		}
		if future < 0 || at < future {
			future = at
		}
	}
	return nil, future
}

func (cc *chanCtl) remove(q *[]*txn, t *txn) {
	for i, x := range *q {
		if x == t {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
	panic("dramcache: transaction not in queue")
}

// scheduleRetry arms a wakeup at the earliest future issue opportunity
// within the scheduling window. best carries the earliest candidate time
// the caller's queue scans already established (-1 when no transaction
// is pending); only the explicit-drain opportunity is probed here.
func (cc *chanCtl) scheduleRetry(now, best sim.Tick) {
	if cc.needExplicitDrain() {
		at := cc.ch.Earliest(dram.Op{Kind: dram.OpStreamRead}, now)
		if best < 0 || at < best {
			best = at
		}
	}
	if best <= now {
		if best == now {
			// A same-tick opportunity can appear when an issuable txn was
			// blocked by ordering; re-run on the next event boundary.
			best = now + 1
		} else {
			return
		}
	}
	if cc.retryAt != 0 && cc.retryAt <= best && cc.retryAt > now {
		return
	}
	// Generation-tagged so superseded retry events die without spawning
	// further retries. The generation rides in a pooled record rather
	// than a captured closure, so arming a retry allocates nothing in
	// steady state.
	cc.retryAt = best
	cc.retryGen++
	ev := cc.retryFree
	if ev == nil {
		ev = &retryEv{cc: cc}
	} else {
		cc.retryFree = ev.next
	}
	ev.gen = cc.retryGen
	cc.ctl.sim.ScheduleArgAt(best, chanRetryEv, ev)
}

// retryEv carries one armed retry's generation through the event kernel;
// records recycle through a per-channel freelist.
type retryEv struct {
	cc   *chanCtl
	gen  uint64
	next *retryEv
}

// chanRetryEv fires an armed retry: stale generations recycle their
// record and die, the live one re-runs the scheduling pass.
func chanRetryEv(a any, _ sim.Tick) {
	ev := a.(*retryEv)
	cc := ev.cc
	live := ev.gen == cc.retryGen
	ev.next = cc.retryFree
	cc.retryFree = ev
	if !live {
		return
	}
	cc.retryAt = 0
	cc.pass()
}

// faultRetry handles a detected (SECDED/RS-uncorrectable) error on t's
// access: within the per-request budget the transaction re-queues after
// an exponential command-slot backoff and reports true (the caller must
// abandon this issue — the tag state was never committed); past the
// budget it reports false, the error is charged against the set, and the
// access proceeds with whatever the (corrupt) device returned so the
// request still completes.
func (cc *chanCtl) faultRetry(t *txn, iss dram.Issue) bool {
	in := cc.ctl.fault
	if in == nil {
		// Unreachable in practice: a Detected outcome implies an armed
		// injector. The guard keeps the hook contract local.
		return false
	}
	if int(t.retries) >= in.RetryBudget() {
		in.NoteExhausted()
		cc.ctl.observeFault("exhausted")
		if o := cc.ctl.obs; o != nil && o.FlightEnabled() {
			o.FlightSnapshot(fmt.Sprintf("uncorrectable fault (line %#x)", t.line))
		}
		cc.ctl.recordUncorrectable(t.line)
		return false
	}
	t.retries++
	in.NoteRetry()
	cc.ctl.observeFault("retry")
	at := iss.DataEnd
	if at < cc.now() {
		at = cc.now()
	}
	backoff := cc.ch.Params().TBURST << (t.retries - 1)
	if r := t.req; r != nil {
		if j := r.J; j != nil {
			j.MarkRetried()
			j.Enter(mem.PhaseRetryBackoff, at)
		}
	}
	cc.ctl.retryingTxns++
	cc.at(at+backoff, faultRequeueEv, t)
	return true
}

// faultRequeueEv re-queues a transaction after its fault-retry backoff.
// ActWr data writes (txnWrite) return to the write queue; every other
// retried kind is a read-side access.
func faultRequeueEv(a any, when sim.Tick) {
	t := a.(*txn)
	cc := t.cc
	cc.ctl.retryingTxns--
	if r := t.req; r != nil {
		if j := r.J; j != nil {
			j.Exit(mem.PhaseRetryBackoff, when)
		}
	}
	if t.kind == txnWrite {
		cc.push(&cc.writeQ, t)
	} else {
		cc.push(&cc.readQ, t)
	}
	cc.pass()
	cc.releaseTxn(t) // the backoff event's reference
}

// issue commits one transaction's device operation and wires its
// completion handling.
func (cc *chanCtl) issue(t *txn, now sim.Tick) {
	iss := cc.ch.Commit(cc.op(t), now)
	switch t.kind {
	case txnRead:
		cc.issueRead(t, iss)
	case txnWriteTagRead:
		cc.issueWriteTagRead(t, iss)
	case txnWrite:
		cc.issueWrite(t, iss)
	case txnFill:
		cc.issueFill(t, iss)
	case txnVictimRead:
		cc.issueVictimRead(t, iss)
	}
}
