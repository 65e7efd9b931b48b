// Package cache implements the on-chip SRAM cache models (private L1 and
// L2 per core, Table III) that sit between the request-generating cores
// and the DRAM cache. They are functional set-associative write-back,
// write-allocate caches with LRU replacement plus a fixed hit latency;
// their purpose in the reproduction is to filter the address stream and
// to generate the dirty writebacks that become the DRAM cache's write
// demands, exactly as LLC writebacks do in the paper's system.
package cache

import (
	"fmt"
	"math/bits"
	"unsafe"

	"tdram/internal/mem"
	"tdram/internal/sim"
)

// Config sizes one cache level.
type Config struct {
	Name    string
	Size    uint64   // bytes
	Ways    int      // associativity
	Latency sim.Tick // hit latency contribution of this level
}

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

// Cache is one level. It is purely functional: Access returns what
// happened and what was evicted; the caller composes latencies.
type Cache struct {
	cfg     Config
	sets    int
	lines   []line // sets × ways
	lruTick uint64

	// tags mirrors lines for the hit scan only: entry w holds tag+1 when
	// lines[w] is valid and 0 otherwise, so the scan compares one compact
	// word per way (a whole 8-way set fits in one host cache line) instead
	// of walking the 24-byte bookkeeping structs. Invariant: tags[i] != 0
	// exactly when lines[i].valid, and then tags[i] == lines[i].tag+1.
	tags []uint64

	// Power-of-two set decode (the common configuration): index by mask
	// and shift instead of modulo and divide, which dominate the access
	// cost otherwise. pow2 false falls back to the general arithmetic.
	pow2  bool
	mask  uint64
	shift uint

	Hits, Misses, Evictions, DirtyEvictions uint64
}

// New builds a cache level. Size must be a multiple of Ways*LineSize.
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways = %d", cfg.Name, cfg.Ways)
	}
	lines := cfg.Size / mem.LineSize
	if lines == 0 || lines%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d ways of %d B lines",
			cfg.Name, cfg.Size, cfg.Ways, mem.LineSize)
	}
	sets := int(lines) / cfg.Ways
	c := &Cache{cfg: cfg, sets: sets, lines: make([]line, lines), tags: make([]uint64, lines)}
	if sets&(sets-1) == 0 {
		c.pow2 = true
		c.mask = uint64(sets - 1)
		c.shift = uint(bits.TrailingZeros(uint(sets)))
	}
	return c, nil
}

// Config returns the construction parameters.
func (c *Cache) Config() Config { return c.cfg }

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) set(lineAddr uint64) (int, uint64) {
	if c.pow2 {
		return int(lineAddr & c.mask), lineAddr >> c.shift
	}
	set := int(lineAddr % uint64(c.sets))
	tag := lineAddr / uint64(c.sets)
	return set, tag
}

// Result describes one access.
type Result struct {
	Hit         bool
	Evicted     bool   // a valid victim was displaced (only on miss fills)
	VictimDirty bool   // the victim needs writing back
	VictimLine  uint64 // line address of the victim
}

// Lookup probes without modifying state (used by tests and by warmup
// verification).
func (c *Cache) Lookup(lineAddr uint64) bool {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	key := tag + 1
	for _, tv := range c.tags[base : base+c.cfg.Ways] {
		if tv == key {
			return true
		}
	}
	return false
}

// Access performs a load (dirty=false) or store (dirty=true) of one line,
// allocating on miss and evicting LRU. The returned Result tells the
// caller whether a dirty victim must be written back to the next level.
func (c *Cache) Access(lineAddr uint64, dirty bool) Result {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	tags := c.tags[base : base+c.cfg.Ways]
	key := tag + 1
	c.lruTick++
	// Hit scan first over the compact tag words — the overwhelmingly
	// common case pays for nothing else; victim selection only runs once
	// the miss is established.
	for w, tv := range tags {
		if tv == key {
			l := &ways[w]
			l.lru = c.lruTick
			if dirty {
				l.dirty = true
			}
			c.Hits++
			return Result{Hit: true}
		}
	}
	// Victim: the first invalid way, else the least recently used (ties
	// break toward the lowest way, matching the original combined scan).
	vw := 0
	if ways[0].valid {
		for w := 1; w < len(ways); w++ {
			l := &ways[w]
			if !l.valid {
				vw = w
				break
			}
			if l.lru < ways[vw].lru {
				vw = w
			}
		}
	}
	victim := &ways[vw]
	c.Misses++
	res := Result{}
	if victim.valid {
		res.Evicted = true
		res.VictimDirty = victim.dirty
		res.VictimLine = victim.tag*uint64(c.sets) + uint64(set)
		c.Evictions++
		if victim.dirty {
			c.DirtyEvictions++
		}
	}
	*victim = line{tag: tag, valid: true, dirty: dirty, lru: c.lruTick}
	tags[vw] = key
	return res
}

// Invalidate drops a line if present, returning whether it was dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	key := tag + 1
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == key {
			l := &c.lines[base+w]
			present, dirty = true, l.dirty
			l.valid = false
			c.tags[base+w] = 0
			return
		}
	}
	return
}

// MarkDirty sets the dirty bit of a resident line (e.g. a writeback from
// an upper level landing in this one). It reports whether the line was
// resident.
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	key := tag + 1
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == key {
			l := &c.lines[base+w]
			l.dirty = true
			l.lru = c.lruTick
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the cache: content, LRU state, and hit
// counters all duplicated, so the copy and the original evolve
// independently. Every System uses this to take its own warmed SRAM
// stack from a warmup image.
//
//tdlint:copier Cache
func (c *Cache) Clone() *Cache {
	d := *c
	d.lines = append([]line(nil), c.lines...)
	d.tags = append([]uint64(nil), c.tags...)
	return &d
}

// Bytes reports the memory the cache's arrays hold.
func (c *Cache) Bytes() int64 {
	return int64(len(c.lines))*int64(unsafe.Sizeof(line{})) + int64(len(c.tags))*8
}

// Occupancy reports the fraction of valid lines (warmup diagnostics).
func (c *Cache) Occupancy() float64 {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return float64(n) / float64(len(c.lines))
}

// Hierarchy is one core's private L1+L2 stack. An access flows through
// both levels functionally; writebacks falling out of L2 are handed to
// the owner via the WriteBack callback (they become DRAM cache write
// demands). Misses in L2 are demand reads for the DRAM cache.
type Hierarchy struct {
	L1, L2 *Cache

	// WriteBack receives dirty L2 victims.
	//tdlint:shared WriteBack — Clone drops it on purpose: it points at the original owner's core and must be rebound by the new owner
	WriteBack func(lineAddr uint64)
}

// NewHierarchy builds the Table III per-core stack: 32 KiB L1 and 512 KiB
// private L2 (the paper's "LLC" for writeback purposes).
func NewHierarchy() *Hierarchy {
	return NewSizedHierarchy(32<<10, 512<<10)
}

// NewSizedHierarchy builds a per-core stack with explicit L1/L2 capacities.
// Scaled-down simulations shrink the on-chip caches along with the DRAM
// cache so the reuse the SRAM levels absorb stays proportionate.
func NewSizedHierarchy(l1Bytes, l2Bytes uint64) *Hierarchy {
	l1, err := New(Config{Name: "l1d", Size: l1Bytes, Ways: 8, Latency: sim.NS(1)})
	if err != nil {
		panic(err)
	}
	l2, err := New(Config{Name: "l2", Size: l2Bytes, Ways: 8, Latency: sim.NS(4)})
	if err != nil {
		panic(err)
	}
	return &Hierarchy{L1: l1, L2: l2}
}

// Clone returns a deep copy of the stack's content and counters. The
// WriteBack callback is NOT carried over — it points at the original
// owner's core; the new owner must rebind it before the first access.
//
//tdlint:copier Hierarchy
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{L1: h.L1.Clone(), L2: h.L2.Clone()}
}

// Bytes reports the memory the stack's arrays hold.
func (h *Hierarchy) Bytes() int64 { return h.L1.Bytes() + h.L2.Bytes() }

// AccessResult summarizes one core access against the stack.
type AccessResult struct {
	Latency  sim.Tick // on-chip latency (excludes any DRAM access)
	MissLine uint64   // valid when Missed
	Missed   bool     // needs a DRAM-cache read demand for MissLine
}

// Access runs one load/store through L1 then L2. When the access misses
// both levels, the caller must issue a read demand for the returned line
// and call Fill once data returns. Store misses allocate like loads
// (write-allocate); stores mark lines dirty so evictions eventually
// produce write demands downstream.
func (h *Hierarchy) Access(lineAddr uint64, store bool) AccessResult {
	res := AccessResult{Latency: h.L1.cfg.Latency}
	r1 := h.L1.Access(lineAddr, store)
	if r1.Hit {
		return res
	}
	// L1 victim falls into L2 (it is inclusive enough for our purposes:
	// mark dirty there, or install if absent).
	if r1.Evicted && r1.VictimDirty {
		if !h.L2.MarkDirty(r1.VictimLine) {
			h.spillToL2(r1.VictimLine)
		}
	}
	res.Latency += h.L2.cfg.Latency
	r2 := h.L2.Access(lineAddr, false) // dirty bit tracked in L1 until eviction
	if r2.Hit {
		return res
	}
	if r2.Evicted && r2.VictimDirty && h.WriteBack != nil {
		h.WriteBack(r2.VictimLine)
	}
	res.Missed = true
	res.MissLine = lineAddr
	return res
}

// spillToL2 installs a dirty L1 victim that L2 no longer holds.
func (h *Hierarchy) spillToL2(lineAddr uint64) {
	r := h.L2.Access(lineAddr, true)
	if r.Evicted && r.VictimDirty && h.WriteBack != nil {
		h.WriteBack(r.VictimLine)
	}
}
