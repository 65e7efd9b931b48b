// Package hooked exercises every guard shape hookguard accepts and the
// violations it must flag.
package hooked

import (
	"fault"
	"mem"
	"obs"
)

type buses struct {
	OnReadFree  func()
	OnWriteFree func()
}

type ctl struct {
	obs   *obs.Observer
	fault *fault.Injector
	mem   *buses
	req   *mem.Request
}

// --- accepted guard shapes ---

func (c *ctl) directGuard() {
	if c.obs != nil {
		c.obs.Inc("ok")
	}
}

func (c *ctl) aliasEarlyReturn() {
	o := c.obs
	if o == nil {
		return
	}
	o.Inc("ok")
	o.Instant("ok")
}

func (c *ctl) aliasEarlyReturnDisjunct(busy bool) {
	o := c.obs
	if o == nil || busy {
		return
	}
	o.Inc("ok")
}

func (c *ctl) conjunctGuard() bool {
	return c.fault != nil && c.fault.DataBeat() == fault.Detected
}

func (c *ctl) ifInitAliasGuard() bool {
	if in := c.fault; in != nil && in.DataBeat() == fault.Detected {
		return true
	}
	return false
}

func (c *ctl) elseBranch() {
	if c.obs == nil {
		return
	} else {
		c.obs.Inc("ok")
	}
}

func (c *ctl) predicateGuard() {
	// The nil-safe predicate is the entrance to the pattern; the calls
	// it dominates are guarded.
	if c.obs.TraceEnabled() {
		c.obs.Instant("ok")
	}
}

func (c *ctl) predicateEarlyReturn() {
	o := c.obs
	if !o.TraceEnabled() {
		return
	}
	o.Instant("ok")
}

func (c *ctl) funcFieldGuard() {
	if c.mem.OnReadFree != nil {
		c.mem.OnReadFree()
	}
	cb := c.mem.OnWriteFree
	if cb != nil {
		cb()
	}
}

func (c *ctl) funcFieldAliasSwitch(isRead bool) {
	cb := c.mem.OnWriteFree
	if isRead {
		cb = c.mem.OnReadFree
	}
	if cb != nil {
		cb()
	}
}

func (c *ctl) journeyGuard() {
	if j := c.req.J; j != nil {
		j.Enter(1)
		j.Span(2, 3)
	}
}

func (c *ctl) journeyEarlyReturn() {
	j := c.req.J
	if j == nil {
		return
	}
	j.Enter(1)
}

// Request itself is not a hook: only the Journey ledger it carries is.
func (c *ctl) requestNotHook() { c.req.Complete() }

func (c *ctl) journeysPredicate() {
	// The new nil-safe predicates admit their dominated calls.
	if c.obs.JourneysEnabled() {
		c.obs.Inc("ok")
	}
	if c.obs.FlightEnabled() {
		c.obs.Inc("ok")
	}
}

// --- violations ---

func (c *ctl) unguardedJourney() {
	c.req.J.Enter(1) // want `call through hook field c\.req\.J is not dominated by a nil check`
}

func (c *ctl) unguardedJourneyAlias() {
	j := c.req.J
	j.Span(1, 2) // want `call through hook field j is not dominated by a nil check`
}

func (c *ctl) unguardedDirect() {
	c.obs.Inc("bad") // want `call through hook field c\.obs is not dominated by a nil check`
}

func (c *ctl) unguardedChain() bool {
	return c.fault.RetryBudget() > 0 // want `call through hook field c\.fault is not dominated by a nil check`
}

func (c *ctl) unguardedAlias() {
	o := c.obs
	o.Inc("bad") // want `call through hook field o is not dominated by a nil check`
}

func (c *ctl) unguardedFuncField() {
	c.mem.OnWriteFree() // want `hook callback c\.mem\.OnWriteFree invoked without a dominating nil check`
}

func (c *ctl) unguardedFuncFieldAlias() {
	cb := c.mem.OnReadFree
	cb() // want `hook callback cb invoked without a dominating nil check`
}

func (c *ctl) wrongGuard(other *obs.Observer) {
	if other != nil {
		c.obs.Inc("bad") // want `call through hook field c\.obs is not dominated by a nil check`
	}
}

// --- snapshot/fork path ---

// Rebinding hook fields while cloning state is assignment, not
// invocation: a fork's new owner installs its own hooks, and the copy
// itself needs no guard.
func (c *ctl) cloneRebind(dst *ctl) {
	dst.obs = c.obs
	dst.mem.OnWriteFree = c.mem.OnWriteFree
}

// A restore that notifies subscribers must still guard the callback it
// just copied — having assigned the field does not prove it non-nil.
func (c *ctl) restoreAndNotify(src *ctl) {
	c.mem.OnReadFree = src.mem.OnReadFree
	if cb := c.mem.OnReadFree; cb != nil {
		cb()
	}
	c.mem.OnWriteFree = src.mem.OnWriteFree
	c.mem.OnWriteFree() // want `hook callback c\.mem\.OnWriteFree invoked without a dominating nil check`
}

// --- out of scope ---

type helper struct{ n int }

func (h *helper) bump() { h.n++ }

type plain struct{ h *helper }

// Non-hook field types are not the analyzer's business.
func (p *plain) ok() { p.h.bump() }

// Parameters are cold-path wiring, not hook fields: nil-safe methods
// may be called directly (the real SetObserver pattern).
func wire(o *obs.Observer) { o.Inc("setup") }

func (c *ctl) allowedCold() {
	c.obs.Inc("cold") //tdlint:allow hookguard — one-time setup, Observer methods are nil-safe
}

// --- service-layer shapes: streaming-progress callbacks ---

// A job-service options struct carries optional streaming callbacks;
// like the memory buses' OnX fields they are nil when streaming is off,
// so every invocation must be guarded.
type serveHooks struct {
	OnRow  func(tick int64, values []float64)
	OnCell func(key string)
}

type jobRunner struct{ hooks *serveHooks }

func (j *jobRunner) guardedRow(t int64, vs []float64) {
	if j.hooks.OnRow != nil {
		j.hooks.OnRow(t, vs)
	}
}

func (j *jobRunner) guardedCellAlias(key string) {
	cb := j.hooks.OnCell
	if cb == nil {
		return
	}
	cb(key)
}

func (j *jobRunner) unguardedRow(t int64, vs []float64) {
	j.hooks.OnRow(t, vs) // want `hook callback j\.hooks\.OnRow invoked without a dominating nil check`
}

func (j *jobRunner) unguardedCellAlias(key string) {
	cb := j.hooks.OnCell
	cb(key) // want `hook callback cb invoked without a dominating nil check`
}
