// Package mem defines the memory-system primitives shared by every model
// in the repository: requests, access kinds, cache-access outcomes, and
// the DRAM address mapping.
package mem

import (
	"fmt"

	"tdram/internal/sim"
)

// LineSize is the cache-line (and memory access) granularity in bytes.
// CPUs from Intel and AMD operate on 64 B lines; the modeled devices pair
// banks to provide 64 B access granularity (paper §III-C1).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Kind distinguishes reads from writes at the memory-demand level.
type Kind uint8

const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Request is one 64 B memory demand travelling from the LLC towards the
// DRAM cache and, on a miss, the backing store.
//
// A request taken from a RequestPool goes back to it when the
// controller drops its last reference (Release); one built as a literal
// is GC-owned, and Release leaves it alone. Word-sized fields lead and
// the narrow ones trail, so the struct packs without padding
// (internal/analysis's fieldalign test pins this).
type Request struct {
	ID   uint64
	Addr uint64 // byte address; always line-aligned by the time it reaches a controller

	// Arrive is set by each controller when the request enters its
	// queues, and is the reference point for queueing-delay statistics.
	Arrive sim.Tick

	// OnDone, when non-nil, is invoked exactly once when the demand is
	// fully serviced (data returned for reads; write accepted and ordered
	// for writes).
	OnDone func(*Request)

	// J, when non-nil, is the request's journey ledger: per-phase time
	// attribution recorded by the controller and finished (classified,
	// aggregated, pooled) by the observer. Nil whenever journey tracking
	// is disabled — every touch point nil-checks it, hookguard-enforced.
	J *Journey

	pool *RequestPool // release hook: the pool Release returns to; nil when GC-owned
	next *Request     // freelist link while pooled

	Core int // originating core, used by stats and predictors

	// gen counts the record's lives: its pool advances it at every
	// release, so a generation read in an earlier life no longer
	// matches (CompleteGen).
	gen uint32

	Kind Kind

	done     bool
	released bool // Release ran: a pooled request returns at Complete
}

// Line reports the line address (byte address >> LineShift).
func (r *Request) Line() uint64 { return r.Addr >> LineShift }

// Complete invokes OnDone exactly once. Further calls panic: a demand
// being completed twice means a controller model has a double-response
// bug, which must not be masked. A pooled request the controller
// already released goes back to its pool here.
func (r *Request) Complete() {
	if r.done {
		panic(fmt.Sprintf("mem: request %d completed twice", r.ID))
	}
	r.done = true
	if r.OnDone != nil {
		r.OnDone(r)
	}
	if r.released {
		r.pool.put(r)
	}
}

// Completed reports whether Complete has run.
func (r *Request) Completed() bool { return r.done }

// Gen reports the request's generation: which life of its pooled
// record this is. A holder that keeps the request across events records
// it and completes through CompleteGen.
func (r *Request) Gen() uint32 { return r.gen }

// CompleteGen is Complete through a reference taken in generation gen.
// If the request was released since — and perhaps handed out again for
// another demand — it panics: completing a recycled record through a
// stale reference is the same double-response bug Complete guards.
func (r *Request) CompleteGen(gen uint32) {
	if r.gen != gen {
		panic(fmt.Sprintf("mem: request %d completed through a reference from generation %d (now %d)", r.ID, gen, r.gen))
	}
	r.Complete()
}

// Release drops the controller's last reference. A pooled request goes
// back to its pool: at once if Complete has run, otherwise when it runs
// (a posted write whose transaction issued inside its own Enqueue). A
// GC-owned request is left alone. Releasing twice panics.
func (r *Request) Release() {
	if r.pool == nil {
		return
	}
	if r.released {
		panic(fmt.Sprintf("mem: request %d released twice", r.ID))
	}
	r.released = true
	if r.done {
		r.pool.put(r)
	}
}

// RequestPool recycles requests through an intrusive freelist: once it
// holds as many records as its owner ever has in flight, Get allocates
// nothing. Each request it hands out carries the pool as its release
// hook, so the controller returns it with Release without knowing its
// owner. A pool belongs to one simulation and is not safe for
// concurrent use.
type RequestPool struct {
	free *Request
}

// Get returns a zeroed request bound to the pool, allocating only when
// the pool is empty.
func (p *RequestPool) Get() *Request {
	r := p.free
	if r == nil {
		return &Request{pool: p}
	}
	p.free = r.next
	*r = Request{pool: p, gen: r.gen}
	return r
}

// put clears a released, completed request into the next generation
// and pushes it on the freelist. The pooled record reads as completed
// and released, so a stale Complete or Release on it panics.
func (p *RequestPool) put(r *Request) {
	*r = Request{pool: p, next: p.free, gen: r.gen + 1, done: true, released: true}
	p.free = r
}

// Outcome classifies a DRAM-cache access, following the paper's Table II.
type Outcome uint8

const (
	ReadHit       Outcome = iota
	ReadMissClean         // includes reads to invalid lines
	ReadMissDirty
	WriteHit
	WriteMissClean // includes writes to invalid lines
	WriteMissDirty
	numOutcomes
)

// NumOutcomes is the number of distinct Outcome values.
const NumOutcomes = int(numOutcomes)

func (o Outcome) String() string {
	switch o {
	case ReadHit:
		return "read-hit"
	case ReadMissClean:
		return "read-miss-clean"
	case ReadMissDirty:
		return "read-miss-dirty"
	case WriteHit:
		return "write-hit"
	case WriteMissClean:
		return "write-miss-clean"
	case WriteMissDirty:
		return "write-miss-dirty"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// IsRead reports whether the outcome belongs to a read demand.
func (o Outcome) IsRead() bool { return o <= ReadMissDirty }

// IsHit reports whether the outcome is a cache hit.
func (o Outcome) IsHit() bool { return o == ReadHit || o == WriteHit }

// IsMissDirty reports whether the outcome displaces dirty data.
func (o Outcome) IsMissDirty() bool { return o == ReadMissDirty || o == WriteMissDirty }

// ClassifyOutcome maps (kind, hit, dirty-victim) to an Outcome.
func ClassifyOutcome(kind Kind, hit, victimDirty bool) Outcome {
	switch {
	case kind == Read && hit:
		return ReadHit
	case kind == Read && victimDirty:
		return ReadMissDirty
	case kind == Read:
		return ReadMissClean
	case hit:
		return WriteHit
	case victimDirty:
		return WriteMissDirty
	default:
		return WriteMissClean
	}
}
