package dramcache

import (
	"tdram/internal/dram"
	"tdram/internal/fault"
	"tdram/internal/mem"
	"tdram/internal/sim"
)

// readFault rolls the fault-injection sites of a committed read access:
// the tag-mat readout (RS-protected; tags-with-tag-banks designs only)
// and the DQ data beats (SECDED-protected). It runs BEFORE tags.access
// so a retried transaction never commits tag state twice. It reports
// true when the access must be abandoned for a retry.
func (cc *chanCtl) readFault(t *txn, iss dram.Issue) bool {
	in := cc.ctl.fault
	if in == nil {
		return false
	}
	if cc.spec().tags == tagsInDevice && !t.outcomeKnown && in.TagRead() == fault.Detected {
		return cc.faultRetry(t, iss)
	}
	if in.DataBeat() == fault.Detected {
		return cc.faultRetry(t, iss)
	}
	return false
}

// hmRetransmit models parity-detected corruption of TDRAM's HM-bus
// result packets: each corrupted packet is re-sent after tHM. Parity
// detection is certain, so the result is only delayed, never wrong —
// and the tag access itself is never redone.
func (cc *chanCtl) hmRetransmit() sim.Tick {
	in := cc.ctl.fault
	if in == nil || !cc.spec().hmBus {
		return 0
	}
	var d sim.Tick
	for i := 0; ; i++ {
		if !in.HMPacket() {
			return d
		}
		if i >= in.RetryBudget() {
			in.NoteExhausted()
			cc.ctl.observeFault("hm.exhausted")
			return d
		}
		in.NoteRetry()
		cc.ctl.observeFault("hm.resend")
		d += cc.ch.Params().THM
	}
}

// tagDoneAt reports when the hit/miss result of a committed access is
// available at the controller: on the HM bus for TDRAM (§III-D1), with
// the data/tag burst for every other design.
func (cc *chanCtl) tagDoneAt(iss dram.Issue) sim.Tick {
	if cc.spec().hmBus {
		return iss.HMAt
	}
	return iss.DataEnd
}

// recordTag samples the Fig. 9 tag-check latency at its arrival time.
// Only read demands are sampled: their tag check gates the LLC response
// and is the latency the figure compares; write tag activity affects
// reads indirectly through read-buffer contention, which the queueing
// samples capture.
func (cc *chanCtl) recordTag(t *txn, at sim.Tick) {
	if t.kind != txnRead {
		return
	}
	cc.at(at, recordTagEv, t)
}

// recordTagEv samples a tag-check latency at its arrival time.
func recordTagEv(a any, when sim.Tick) {
	t := a.(*txn)
	t.cc.ctl.sampleTagCheck(when - t.arrive)
	t.cc.releaseTxn(t)
}

// lineRead accounts one column read moving a line to the controller:
// the burst to the energy meter, its 64 line bytes to the given
// TrafficBreakdown class, and the rest of the burst to OverheadBytes.
func (cc *chanCtl) lineRead(class *uint64) {
	rb := cc.spec().readBytes
	cc.ctl.meter.Cols++
	cc.ctl.meter.Bytes += rb
	*class += 64
	cc.st().Traffic.OverheadBytes += rb - 64
}

// lineWrite accounts one column write of a line, as lineRead does.
func (cc *chanCtl) lineWrite(class *uint64) {
	wb := cc.spec().writeBytes
	cc.ctl.meter.Cols++
	cc.ctl.meter.Bytes += wb
	*class += 64
	cc.st().Traffic.OverheadBytes += wb - 64
}

// flushDrained accounts one flush-buffer entry streamed to the
// controller by a drain of the given kind, counted in counter.
func (cc *chanCtl) flushDrained(counter *uint64, kind string) {
	*counter++
	cc.observeFlushDrain(kind)
	cc.st().Traffic.VictimBytes += 64
	cc.ctl.meter.Bytes += 64
}

// issueRead handles a committed demand-read access.
func (cc *chanCtl) issueRead(t *txn, iss dram.Issue) {
	tr := &cc.st().Traffic
	if cc.ctl.fault != nil && cc.readFault(t, iss) {
		return
	}
	cc.st().ReadQueueing.AddTick(iss.At - t.arrive)
	if r := t.req; r != nil {
		if j := r.J; j != nil {
			j.Span(mem.PhaseQueueWait, iss.At-t.arrive)
		}
	}

	if t.outcomeKnown {
		// Ideal read-hit, or a TDRAM access whose outcome a probe fixed.
		switch t.outcome {
		case mem.ReadHit:
			cc.lineRead(&tr.DemandBytes)
			if r := t.req; r != nil {
				if j := r.J; j != nil {
					j.Span(mem.PhaseDQBurst, iss.DataEnd-iss.DataStart)
				}
			}
			cc.completeReadAt(t, iss.DataEnd)
		case mem.ReadMissDirty:
			// Probed miss-dirty: this access fetches the dirty victim;
			// the demand's backing fetch started at probe time.
			cc.lineRead(&tr.VictimBytes)
			cc.at(iss.DataEnd, probedVictimEv, t)
		default:
			panic("dramcache: unexpected pre-known read outcome " + t.outcome.String())
		}
		return
	}

	// The tag check commits with this access.
	sp := cc.spec()
	install := true
	if sp.dcp && !cc.ctl.tags.probe(t.line).Hit && cc.ctl.bearBypassFill(t.line) {
		install = false
		cc.st().FillsBypassed++
	}
	outcome, victim, _ := cc.ctl.tags.access(t.line, false, install)
	t.outcome, t.outcomeKnown, t.victim = outcome, true, victim
	cc.st().Outcomes.Add(outcome)
	cc.ctl.bearObserve(t.line, outcome)
	if cc.ctl.predictor != nil {
		cc.ctl.predictor.Update(t.req.Core, t.line, outcome.IsHit())
	}
	tagAt := cc.tagDoneAt(iss) + cc.hmRetransmit()
	cc.observeOutcome(outcome, tagAt)
	cc.recordTag(t, tagAt)
	cc.journeyTagSpans(t, iss, tagAt)

	switch outcome {
	case mem.ReadHit:
		cc.ctl.scorePrefetch(t.line)
		cc.lineRead(&tr.DemandBytes)
		if r := t.req; r != nil {
			if j := r.J; j != nil {
				j.Span(mem.PhaseDQBurst, iss.DataEnd-iss.DataStart)
			}
		}
		cc.completeReadAt(t, iss.DataEnd)

	case mem.ReadMissClean:
		switch sp.missClean {
		case missCleanSkip:
			// Conditional column operation: the in-DRAM compare gated the
			// column decode — no column op, no DQ transfer. The reserved
			// DQ slot drains one flush-buffer entry instead (§III-D2).
			cc.drainIdleSlot(iss.DataStart)
		case missCleanColumnOnly:
			// NDC always performs the column operation (energy) but
			// transfers nothing on a miss-clean (§VI).
			cc.ctl.meter.Cols++
		default:
			cc.lineRead(&tr.DiscardBytes)
		}
		if install {
			cc.ctl.markInflight(t.line)
		}
		cc.resolveMissRead(t, tagAt, install)

	case mem.ReadMissDirty:
		// Dirty victim streams back with hit timing in every design.
		cc.lineRead(&tr.VictimBytes)
		cc.ctl.markInflight(t.line)
		cc.at(iss.DataEnd, writebackVictimEv, t)
		cc.resolveMissRead(t, tagAt, true)
	}
}

// journeyTagSpans attributes a committed access's tag resolution to the
// demand's journey: the in-DRAM tag access, then (TDRAM) the HM-bus
// result return including parity retransmits. It also records the
// resolved outcome for journey classification.
func (cc *chanCtl) journeyTagSpans(t *txn, iss dram.Issue, tagAt sim.Tick) {
	r := t.req
	if r == nil {
		return
	}
	j := r.J
	if j == nil {
		return
	}
	j.Note(t.outcome)
	if cc.spec().hmBus {
		j.Span(mem.PhaseTagCheck, iss.TagInt-iss.At)
		j.Span(mem.PhaseHMBus, tagAt-iss.TagInt)
	} else {
		j.Span(mem.PhaseTagCheck, tagAt-iss.At)
	}
}

// resolveMissRead starts (or joins) the backing fetch for a read miss
// once the controller knows the outcome at tagAt.
func (cc *chanCtl) resolveMissRead(t *txn, tagAt sim.Tick, fill bool) {
	if t.predStarted {
		// §V-D: the predictor already launched the fetch; the demand
		// finishes when both the tag result and the data are in.
		cc.at(tagAt, tagMissResultEv, t)
		return
	}
	t.fill = fill
	cc.at(tagAt, missFetchEv, t)
}

// probedVictimEv finishes a probed miss-dirty's victim readout: the
// victim goes to the writeback queue, and the fill dispatches once the
// backing data has also arrived.
func probedVictimEv(a any, _ sim.Tick) {
	t := a.(*txn)
	cc := t.cc
	cc.ctl.writeback(t.victim)
	t.victimDone = true
	if t.mmArrived {
		cc.ctl.dispatchFill(t.line)
	}
	cc.releaseTxn(t)
}

// writebackVictimEv queues a read-miss-dirty's victim once its data
// finished streaming to the controller.
func writebackVictimEv(a any, _ sim.Tick) {
	t := a.(*txn)
	t.cc.ctl.writeback(t.victim)
	t.cc.releaseTxn(t)
}

// tagMissResultEv delivers a predicted-miss read's tag result (§V-D).
func tagMissResultEv(a any, _ sim.Tick) {
	t := a.(*txn)
	t.tagSaidMiss = true
	if t.predDataAt != 0 {
		t.cc.finishPredictedMiss(t)
	}
	t.cc.releaseTxn(t)
}

// missFetchEv starts a read miss's backing fetch once the tag result is
// at the controller.
func missFetchEv(a any, _ sim.Tick) {
	t := a.(*txn)
	t.cc.ctl.missFetch(t)
	t.cc.releaseTxn(t)
}

// predictorDataEv records the arrival of a predicted-miss prefetch.
func predictorDataEv(a any, _ sim.Tick) {
	t := a.(*txn)
	t.cc.predictorData(t)
	t.cc.releaseTxn(t)
}

// predictorData records the arrival of a predicted-miss prefetch.
func (cc *chanCtl) predictorData(t *txn) {
	t.predDataAt = cc.now()
	if r := t.req; r != nil {
		if j := r.J; j != nil {
			j.Exit(mem.PhaseMissFetch, t.predDataAt)
		}
	}
	if t.tagSaidMiss {
		cc.finishPredictedMiss(t)
	}
}

func (cc *chanCtl) finishPredictedMiss(t *txn) {
	cc.completeReadAt(t, cc.now())
	cc.ctl.resolveInflight(t.line)
	cc.ctl.dispatchFill(t.line)
	t.tagSaidMiss = false // guard against double finish
	t.predStarted = false
}

// completeReadAt finishes t's demand read at the given time.
func (cc *chanCtl) completeReadAt(t *txn, at sim.Tick) {
	cc.at(at, completeReadEv, t)
}

// completeReadEv responds to a demand read at its data-arrival time.
func completeReadEv(a any, when sim.Tick) {
	t := a.(*txn)
	t.cc.ctl.answer(t, when)
	t.cc.ctl.retryUpstream()
	t.cc.releaseTxn(t)
}

// issueWriteTagRead handles the CL-family tag-check read for a write.
func (cc *chanCtl) issueWriteTagRead(t *txn, iss dram.Issue) {
	tr := &cc.st().Traffic
	if cc.ctl.fault != nil && cc.ctl.fault.DataBeat() == fault.Detected && cc.faultRetry(t, iss) {
		return
	}
	cc.st().ReadQueueing.AddTick(iss.At - t.arrive)
	if r := t.req; r != nil {
		if j := r.J; j != nil {
			// The CL-family tag read is a full data burst: its queueing and
			// burst time are the write's tag-check cost.
			j.Span(mem.PhaseQueueWait, iss.At-t.arrive)
			j.Span(mem.PhaseTagCheck, iss.DataEnd-iss.At)
		}
	}
	outcome, victim, _ := cc.ctl.tags.access(t.line, true, true)
	cc.st().Outcomes.Add(outcome)
	cc.observeOutcome(outcome, iss.DataEnd)
	cc.ctl.bearObserve(t.line, outcome)
	if outcome == mem.WriteMissDirty {
		cc.lineRead(&tr.VictimBytes)
	} else {
		// Write-hit and write-miss-clean tag-read data is discarded the
		// moment the comparison completes (§II-B3).
		cc.lineRead(&tr.DiscardBytes)
	}
	cc.recordTag(t, iss.DataEnd)
	// The data write carries the request on; the tag read is done.
	w := cc.getTxn(txnWrite, t.req, t.line, t.bank)
	w.outcomeKnown, w.outcome, w.victim = true, outcome, victim
	t.req = nil
	cc.at(iss.DataEnd, writeTagDoneEv, w)
}

// writeTagDoneEv acts on a CL-family write's tag-read result at data
// arrival: a dirty victim heads to the writeback queue, and the demand's
// data write enters the write queue.
func writeTagDoneEv(a any, _ sim.Tick) {
	w := a.(*txn)
	cc := w.cc
	if w.outcome == mem.WriteMissDirty {
		cc.ctl.writeback(w.victim)
	}
	cc.enqueueWriteTxn(w)
	cc.releaseTxn(w)
}

// enqueueWriteTxn adds a data write or fill, overflowing if the queue is
// full.
func (cc *chanCtl) enqueueWriteTxn(w *txn) {
	if len(cc.writeQ) >= WriteQueueDepth {
		w.refs++ // the overflow slot's reference
		//tdlint:allow poollife — the overflow slot is a counted reference that pass moves into the write queue
		cc.overflow.Push(w)
		return
	}
	cc.push(&cc.writeQ, w)
	cc.pass()
}

// issueWrite handles a committed data write (demand write or ActWr).
func (cc *chanCtl) issueWrite(t *txn, iss dram.Issue) {
	if !t.outcomeKnown {
		// NDC/TDRAM ActWr: the tag check happens in-DRAM at commit. A
		// detected tag-mat error retries the whole ActWr (the compare,
		// hence the conditional write, cannot be trusted).
		if cc.ctl.fault != nil && cc.ctl.fault.TagRead() == fault.Detected && cc.faultRetry(t, iss) {
			return
		}
		outcome, victim, _ := cc.ctl.tags.access(t.line, true, true)
		t.outcome, t.outcomeKnown = outcome, true
		cc.st().Outcomes.Add(outcome)
		tagAt := cc.tagDoneAt(iss) + cc.hmRetransmit()
		cc.observeOutcome(outcome, tagAt)
		cc.recordTag(t, tagAt)
		cc.journeyTagSpans(t, iss, tagAt)
		if outcome == mem.WriteMissDirty {
			// The displaced dirty line moves into the flush buffer with
			// an internal read — no DQ turnaround (§III-D2).
			cc.ctl.meter.Cols++ // internal read column op
			cc.pushFlush(victim)
		}
	}
	cc.lineWrite(&cc.st().Traffic.DemandBytes)
	if r := t.req; r != nil {
		if j := r.J; j != nil {
			j.Exit(mem.PhaseFlushStall, iss.At)
			j.Span(mem.PhaseQueueWait, iss.At-t.arrive)
			j.Span(mem.PhaseDQBurst, iss.DataEnd-iss.DataStart)
		}
		cc.ctl.finishJourney(r, iss.DataEnd)
		// The posted write completed at intake; the issued data write
		// was its last reference.
		t.req = nil
		r.Release()
	}
}

// issueFill writes fetched miss data into the cache.
func (cc *chanCtl) issueFill(t *txn, _ dram.Issue) {
	cc.lineWrite(&cc.st().Traffic.FillBytes)
	cc.ctl.tags.fillDone(t.line)
}

// issueVictimRead fetches a dirty victim's data (Ideal design).
func (cc *chanCtl) issueVictimRead(t *txn, iss dram.Issue) {
	if cc.ctl.fault != nil && cc.ctl.fault.DataBeat() == fault.Detected && cc.faultRetry(t, iss) {
		return
	}
	cc.st().ReadQueueing.AddTick(iss.At - t.arrive)
	cc.lineRead(&cc.st().Traffic.VictimBytes)
	cc.at(iss.DataEnd, victimReadDoneEv, t)
}

// victimReadDoneEv completes an Ideal-design victim read: the line heads
// to the writeback queue and dependent writes become issuable.
func victimReadDoneEv(a any, _ sim.Tick) {
	t := a.(*txn)
	cc := t.cc
	cc.ctl.writeback(t.line)
	t.done = true
	cc.pass()
	cc.releaseTxn(t)
}

// dispatchFill enqueues the fill write for a line on its home channel.
func (c *Controller) dispatchFill(line uint64) {
	if c.fault != nil && c.tags.isRetired(line) {
		return // the set was retired while the fetch was in flight
	}
	chIdx, bank := c.dev.Route(line)
	c.chans[chIdx].enqueueFill(line, bank)
}

// tryProbe issues an early tag probe in an otherwise unused slot
// (§III-E): tag bank and HM bus only, no data-bank activity.
func (cc *chanCtl) tryProbe(now sim.Tick) bool {
	var pick *txn
	// The paper's selection policy picks the youngest eligible request
	// (§III-E2), so the scan starts from the queue tail; ProbeOldest
	// reverses it for the ablation. The scan is window-bounded like the
	// MAIN arbiter's.
	checked := 0
	for i := range cc.readQ {
		t := cc.readQ[len(cc.readQ)-1-i]
		if cc.cfg().ProbeOldest {
			t = cc.readQ[i]
		}
		if t.kind != txnRead || t.probed || t.outcomeKnown || t.predStarted {
			continue
		}
		if checked++; checked > schedWindow {
			break
		}
		if cc.ch.Earliest(dram.Op{Kind: dram.OpProbe, Bank: t.bank}, now) != now {
			continue
		}
		pick = t
		break
	}
	if pick == nil {
		return false
	}
	iss := cc.ch.Commit(dram.Op{Kind: dram.OpProbe, Bank: pick.bank}, now)
	cc.st().Probes++
	cc.observeProbe(now)
	pick.probed = true
	outcome, victim, _ := cc.ctl.tags.access(pick.line, false, true)
	pick.outcome, pick.outcomeKnown, pick.victim = outcome, true, victim
	cc.st().Outcomes.Add(outcome)
	cc.observeOutcome(outcome, iss.HMAt)
	if !outcome.IsHit() {
		cc.ctl.markInflight(pick.line)
	}
	hmAt := iss.HMAt + cc.hmRetransmit()
	if r := pick.req; r != nil {
		if j := r.J; j != nil {
			j.Note(outcome)
			j.Span(mem.PhaseTagCheck, iss.TagInt-iss.At)
			j.Span(mem.PhaseHMBus, hmAt-iss.TagInt)
		}
	}
	cc.at(hmAt, probeResultEv, pick)
	return true
}

// probeResultEv delivers a probe's HM-bus result.
func probeResultEv(a any, when sim.Tick) {
	t := a.(*txn)
	t.cc.probeResult(t, when)
	t.cc.releaseTxn(t)
}

// probeResult acts on a probe's HM-bus result.
func (cc *chanCtl) probeResult(t *txn, at sim.Tick) {
	cc.ctl.sampleTagCheck(at - t.arrive)
	t.probeResolved = true
	switch t.outcome {
	case mem.ReadHit:
		cc.st().ProbeHits++
		cc.pass() // now eligible for a MAIN slot
	case mem.ReadMissClean:
		// The request leaves the read queue without ever touching the
		// data banks; the backing fetch starts immediately.
		cc.st().ProbeMissClean++
		cc.st().ReadQueueing.AddTick(at - t.arrive)
		if r := t.req; r != nil {
			if j := r.J; j != nil {
				j.Span(mem.PhaseQueueWait, at-t.arrive)
			}
		}
		cc.remove(&cc.readQ, t)
		t.fill = true
		cc.ctl.missFetch(t)
		cc.releaseTxn(t) // the read queue slot's reference
		cc.pass()
	case mem.ReadMissDirty:
		// Start the backing fetch now; the MAIN access still must read
		// the dirty victim before the fill may overwrite it.
		cc.st().ProbeMissDirty++
		if r := t.req; r != nil {
			if j := r.J; j != nil {
				j.Enter(mem.PhaseMissFetch, at)
			}
		}
		cc.ctl.countMMRead()
		t.refs++ // the fetch holds t until probeMissDataEv
		//tdlint:allow poollife — the fetch is a counted reference that probeMissDataEv releases
		if !cc.ctl.mm.ReadArg(t.line, probeMissDataEv, t) {
			//tdlint:allow poollife — the parked fetch keeps the fetch's counted reference until the pump re-offers it
			cc.ctl.parkMMRead(pendingMM{line: t.line, fn: probeMissDataEv, arg: t})
		}
		cc.pass()
	}
}

// probeMissDataEv completes a probed miss-dirty's backing fetch: the
// demand is answered from the controller, and the fill dispatches once
// the victim has also been read out.
func probeMissDataEv(a any, _ sim.Tick) {
	t := a.(*txn)
	c := t.cc.ctl
	now := c.sim.Now()
	if j := t.req.J; j != nil {
		j.Exit(mem.PhaseMissFetch, now)
	}
	c.answer(t, now)
	c.resolveInflight(t.line)
	t.mmArrived = true
	if t.victimDone {
		c.dispatchFill(t.line)
	}
	c.retryUpstream()
	t.cc.releaseTxn(t)
}

// pushFlush parks a dirty victim in the flush buffer.
func (cc *chanCtl) pushFlush(victim uint64) {
	cc.flush.Push(flushEntry{line: victim})
	n := cc.flush.Len()
	cc.st().FlushOccupancy.Add(float64(n))
	if n > cc.st().FlushMax {
		cc.st().FlushMax = n
	}
	cc.observeFlushFill()
}

// popFlush reads out the head flush-buffer entry, rolling its SECDED
// fault site. ok=false means the drain slot produced nothing: either a
// detected error left the entry parked for a later retry, or (budget
// exhausted) the victim was dropped — a lost writeback, counted but not
// charged to set retirement (the flush buffer is controller-edge SRAM,
// not a tag mat).
func (cc *chanCtl) popFlush() (line uint64, ok bool) {
	e := cc.flush.Front()
	if in := cc.ctl.fault; in != nil && in.FlushEntry() == fault.Detected {
		if int(e.retries) >= in.RetryBudget() {
			cc.flush.Pop()
			in.NoteExhausted()
			in.NoteVictimLost()
			cc.ctl.observeFault("flush.lost")
			return 0, false
		}
		e.retries++
		in.NoteRetry()
		cc.ctl.observeFault("flush.retry")
		return 0, false
	}
	return cc.flush.Pop().line, true
}

// drainIdleSlot uses a read-miss-clean's unused DQ slot to move one
// flush-buffer entry to the controller.
func (cc *chanCtl) drainIdleSlot(at sim.Tick) {
	if cc.flush.Len() == 0 {
		return
	}
	line, ok := cc.popFlush()
	if !ok {
		return
	}
	cc.flushDrained(&cc.st().FlushDrainIdleSlot, "idle-slot")
	cc.scheduleWriteback(at, line)
}

// lineEv carries a deferred writeback's line through the event kernel;
// records recycle through a per-channel freelist so idle-slot drains
// allocate nothing in steady state.
type lineEv struct {
	cc   *chanCtl
	line uint64
	next *lineEv
}

// scheduleWriteback queues line for the backing store at time at.
func (cc *chanCtl) scheduleWriteback(at sim.Tick, line uint64) {
	ev := cc.lineFree
	if ev == nil {
		ev = &lineEv{cc: cc}
	} else {
		cc.lineFree = ev.next
	}
	ev.line = line
	//tdlint:allow poollife — the scheduled event is the record's only live reference; writebackLineEv recycles it when it fires
	cc.ctl.sim.ScheduleArgAt(at, writebackLineEv, ev)
}

// writebackLineEv fires a deferred writeback and recycles its record.
func writebackLineEv(a any, _ sim.Tick) {
	ev := a.(*lineEv)
	cc, line := ev.cc, ev.line
	ev.next = cc.lineFree
	cc.lineFree = ev
	cc.ctl.writeback(line)
}

// refreshDrain streams flush-buffer entries to the controller during a
// refresh window, when banks are busy but the DQ bus is idle.
func (cc *chanCtl) refreshDrain(start, end sim.Tick) {
	slots := int((end - start) / cc.ch.Params().TBURST)
	for i := 0; i < slots && cc.flush.Len() > 0; i++ {
		line, ok := cc.popFlush()
		if !ok {
			continue // the slot is spent either way
		}
		cc.flushDrained(&cc.st().FlushDrainRefresh, "refresh")
		cc.ctl.writeback(line)
	}
}

// needExplicitDrain reports whether explicit drain commands are due: NDC
// must issue RES commands once its victim buffer passes 3/4 or whenever
// the channel is otherwise idle (it has no opportunistic path, so idle
// entries would never reach main memory); TDRAM drains explicitly only
// when completely full — refresh windows and miss-clean slots cover the
// rest (§III-D2).
func (cc *chanCtl) needExplicitDrain() bool {
	drain := cc.spec().drain
	if drain == drainNone || cc.flush.Len() == 0 {
		return false
	}
	if cc.forceDrain {
		return true
	}
	if drain == drainRES {
		return cc.flush.Len() >= cc.cfg().FlushEntries*3/4 ||
			(len(cc.readQ) == 0 && len(cc.writeQ) == 0)
	}
	return cc.flush.Len() >= cc.cfg().FlushEntries
}

// tryExplicitDrain issues one explicit buffer-read command, paying the
// DQ turnaround the opportunistic paths avoid.
func (cc *chanCtl) tryExplicitDrain(now sim.Tick) bool {
	op := dram.Op{Kind: dram.OpStreamRead}
	if cc.ch.Earliest(op, now) != now {
		return false
	}
	cc.ch.Commit(op, now)
	line, ok := cc.popFlush()
	if !ok {
		return true // the command slot was spent regardless
	}
	cc.flushDrained(&cc.st().FlushDrainExplicit, "explicit")
	if cc.spec().hmBus {
		cc.st().FlushStalls++
	}
	cc.ctl.writeback(line)
	return true
}
