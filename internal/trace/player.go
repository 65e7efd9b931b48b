package trace

import (
	"fmt"

	"tdram/internal/dramcache"
	"tdram/internal/mem"
	"tdram/internal/sim"
)

// Player replays a recorded demand stream open-loop against a
// controller: each demand is injected at its recorded time (normalized
// to simulation start), slipping only under controller backpressure.
// This is classic trace-driven simulation — deliberately blind to the
// feedback between memory-system latency and demand timing, which is
// the limitation the paper's methodology avoids (§IV-A).
type Player struct {
	sim    *sim.Simulator
	ctl    *dramcache.Controller
	events []Event

	idx            int
	base           sim.Tick
	openReads      int
	reads          uint64
	injectQueued   bool
	retryScheduled bool
}

// NewPlayer builds a player over events (time-ordered).
func NewPlayer(s *sim.Simulator, ctl *dramcache.Controller, events []Event) *Player {
	p := &Player{sim: s, ctl: ctl, events: events}
	ctl.OnDemandRetry = p.onRetry
	return p
}

// Prewarm applies the first frac of the trace to the cache content
// functionally (no timing) and replays only the remainder — the
// trace-driven analogue of starting from a warmed checkpoint. The warm
// content is built by a dramcache.Prewarmer and installed into the
// controller, the same transition full-system runs start from.
func (p *Player) Prewarm(frac float64) error {
	if frac <= 0 || len(p.events) == 0 {
		return nil
	}
	n := int(float64(len(p.events)) * frac)
	if n > len(p.events) {
		n = len(p.events)
	}
	warm := p.events[:n]
	p.events = p.events[n:]
	cfg := p.ctl.Config()
	if !cfg.Design.Cached() {
		return nil
	}
	pw, err := dramcache.NewPrewarmer(cfg.CapacityBytes, cfg.Ways)
	if err != nil {
		return err
	}
	for _, e := range warm {
		pw.Prewarm(e.Line, e.Kind == mem.Write)
	}
	return p.ctl.InstallTags(pw.Image())
}

// Run injects the whole trace and waits for every read to complete. It
// returns the replay's runtime.
func (p *Player) Run() (sim.Tick, error) {
	if len(p.events) == 0 {
		return 0, nil
	}
	p.base = p.events[0].Tick
	start := p.sim.Now()
	p.scheduleNext()
	ok := p.sim.RunUntil(func() bool {
		return p.idx >= len(p.events) && p.openReads == 0
	})
	if !ok {
		// Give daemon-driven drains a chance, then re-check.
		for i := 0; i < 100 && !(p.idx >= len(p.events) && p.openReads == 0); i++ {
			p.sim.Run(p.sim.Now() + sim.NS(8000))
		}
	}
	if p.idx < len(p.events) || p.openReads != 0 {
		return 0, fmt.Errorf("trace: replay stalled at event %d/%d with %d reads outstanding",
			p.idx, len(p.events), p.openReads)
	}
	return p.sim.Now() - start, nil
}

// scheduleNext arms the injection of the next pending event.
func (p *Player) scheduleNext() {
	if p.injectQueued || p.idx >= len(p.events) {
		return
	}
	p.injectQueued = true
	due := p.events[p.idx].Tick - p.base
	now := p.sim.Now()
	delay := due - now
	if delay < 0 {
		delay = 0 // slipped past the recorded time under backpressure
	}
	p.sim.ScheduleArg(delay, playerInjectEv, p)
}

// playerInjectEv fires a scheduled injection point.
func playerInjectEv(a any, _ sim.Tick) {
	p := a.(*Player)
	p.injectQueued = false
	p.inject()
}

// playerRetryEv re-runs injection after a backpressure backoff.
func playerRetryEv(a any, _ sim.Tick) {
	p := a.(*Player)
	p.retryScheduled = false
	p.inject()
}

// inject issues every event that is due, then re-arms.
func (p *Player) inject() {
	now := p.sim.Now()
	for p.idx < len(p.events) {
		e := p.events[p.idx]
		if e.Tick-p.base > now {
			break
		}
		req := &mem.Request{
			ID:   uint64(p.idx + 1),
			Addr: e.Line * mem.LineSize,
			Kind: e.Kind,
			Core: int(e.Core),
		}
		if e.Kind == mem.Read {
			req.OnDone = func(*mem.Request) { p.openReads-- }
		}
		if !p.ctl.Enqueue(req) {
			// Backpressure: wait for the controller's retry signal (with
			// a timed fallback so replay cannot wedge).
			if !p.retryScheduled {
				p.retryScheduled = true
				p.sim.ScheduleArg(sim.NS(50), playerRetryEv, p)
			}
			return
		}
		if e.Kind == mem.Read {
			p.openReads++
			p.reads++
		}
		p.idx++
	}
	p.scheduleNext()
}

// onRetry is the controller's queue-space signal.
func (p *Player) onRetry() {
	if p.idx < len(p.events) && !p.injectQueued {
		p.scheduleNext()
	}
}

// Reads reports the number of read demands injected.
func (p *Player) Reads() uint64 { return p.reads }
