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

// Cache is one level. It is purely functional: Access returns what
// happened and what was evicted; the caller composes latencies.
type Cache struct {
	cfg  Config
	sets int

	// lines holds one word per line, sets × ways: (tag+1)<<1 | dirty,
	// and 0 when the line is invalid, so the hit scan compares one
	// compact word per way (a whole 8-way set fits in one host cache
	// line).
	lines []uint64
	// rec holds two words per set: its recency word (below) and the
	// set's newest tick. lruTick is the stamp counter every Access
	// advances.
	rec     []uint64
	lruTick uint64

	// Power-of-two set decode (the common configuration): index by mask
	// and shift instead of modulo and divide, which dominate the access
	// cost otherwise. pow2 false falls back to the general arithmetic.
	pow2  bool
	mask  uint64
	shift uint

	Hits, Misses, Evictions, DirtyEvictions uint64
}

// A set's recency word lists its ways from most to least recently used
// in 4-bit fields, field 0 lowest; the fields past the ways used so far
// hold 15. Its top nibble counts the leading ways that share the set's
// newest tick. The order is exactly the one per-line ticks would give:
// newest tick first, ties with the higher way first, so a full set's
// victim (the lowest tick, ties to the lowest way) is field Ways-1.
// Access stamps a fresh tick, so its way leads alone. MarkDirty restamps
// the current tick without advancing it, so its way ties with the
// leading ways when they hold that tick and joins their group in way
// order. Every later stamp is newer, so only the leading group can grow
// and the groups behind it keep their order.
//
// maxWays is the most ways the 15 fields can order; wayFields masks
// them, nibbles has a 1 in each, and the group count sits above them at
// groupShift.
const (
	maxWays           = 15
	groupShift        = 60
	wayFields  uint64 = 1<<groupShift - 1
	nibbles           = wayFields / 15
)

// New builds a cache level. Size must be a multiple of Ways*LineSize.
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 || cfg.Ways > maxWays {
		return nil, fmt.Errorf("cache %s: ways = %d, want 1..%d", cfg.Name, cfg.Ways, maxWays)
	}
	lines := cfg.Size / mem.LineSize
	if lines == 0 || lines%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d ways of %d B lines",
			cfg.Name, cfg.Size, cfg.Ways, mem.LineSize)
	}
	sets := int(lines) / cfg.Ways
	c := &Cache{cfg: cfg, sets: sets, lines: make([]uint64, lines), rec: make([]uint64, 2*sets)}
	for s := 0; s < len(c.rec); s += 2 {
		c.rec[s] = wayFields
	}
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

// dirtyBit is the dirty flag in a line's word.
const dirtyBit uint64 = 1

// Lookup probes without modifying state (used by tests and by warmup
// verification).
func (c *Cache) Lookup(lineAddr uint64) bool {
	_, hit := c.find(c.set(lineAddr))
	return hit
}

// find returns the index in lines of the word holding tag in set and
// whether it is resident.
func (c *Cache) find(set int, tag uint64) (int, bool) {
	base := set * c.cfg.Ways
	key := (tag + 1) << 1
	for w, l := range c.lines[base : base+c.cfg.Ways] {
		if l&^dirtyBit == key {
			return base + w, true
		}
	}
	return 0, false
}

// Access performs a load (dirty=false) or store (dirty=true) of one line,
// allocating on miss and evicting LRU. The returned Result tells the
// caller whether a dirty victim must be written back to the next level.
func (c *Cache) Access(lineAddr uint64, dirty bool) Result {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	key := (tag + 1) << 1
	c.lruTick++
	// One scan finds a hit and, for a miss, the first invalid way.
	w, free := len(ways)-1, len(ways)
	for ; w >= 0; w-- {
		l := ways[w]
		if l&^dirtyBit == key {
			break
		}
		if l == 0 {
			free = w
		}
	}
	res := Result{Hit: w >= 0}
	if res.Hit {
		c.Hits++
	} else {
		// Victim: the first invalid way, else the least recently used,
		// the recency word's last field (every way of a full set has
		// been stamped).
		w = free
		if w == len(ways) {
			w = int(c.rec[2*set] >> (4 * (len(ways) - 1)) & 15)
		}
		c.Misses++
		if victim := ways[w]; victim != 0 {
			res.Evicted = true
			res.VictimDirty = victim&dirtyBit != 0
			res.VictimLine = (victim>>1-1)*uint64(c.sets) + uint64(set)
			c.Evictions++
			if res.VictimDirty {
				c.DirtyEvictions++
			}
		}
		ways[w] = key
	}
	if dirty {
		ways[w] |= dirtyBit
	}
	// A fresh tick: w leads the recency word alone.
	i := 2 * set
	l := c.rec[i] & wayFields
	c.rec[i] = 1<<groupShift | moveTo(l, span(l, w), w, 0)
	c.rec[i+1] = c.lruTick
	return res
}

// restamp gives way w of set the current tick without advancing it. If
// the set's leading group holds that tick, w joins it ahead of its lower
// ways; otherwise w leads alone.
func (c *Cache) restamp(set, w int) {
	i := 2 * set
	l := c.rec[i] & wayFields
	u := span(l, w)
	g := uint(0) // the leading group's size, if it holds the current tick
	if c.rec[i+1] == c.lruTick {
		g = uint(c.rec[i] >> groupShift)
	}
	if u < 1<<(4*g) {
		return // already in the group
	}
	q := uint(0)
	for q < g && int(l>>(4*q)&15) > w {
		q++
	}
	c.rec[i] = uint64(g+1)<<groupShift | moveTo(l, u, w, q)
	c.rec[i+1] = c.lruTick
}

// span returns the mask of l's fields up to and including the one that
// holds way w, or of every field when none does (w has never been
// used). The fields below w's are non-zero after the XOR, so no borrow
// reaches it and the lowest flagged bit is exact.
func span(l uint64, w int) uint64 {
	x := l ^ uint64(w)*nibbles
	t := (x - nibbles) &^ x & (nibbles << 3)
	return (t&-t)<<1 - 1
}

// moveTo moves way w to field q of l from the last field of u, its span,
// shifting the fields between up by one. When w is missing every field
// from q shifts and the last, unused, drops off.
func moveTo(l, u uint64, w int, q uint) uint64 {
	below := uint64(1)<<(4*q) - 1
	return l&below | (l&(u>>4)&^below&(wayFields>>4))<<4 | l&^u | uint64(w)<<(4*q)
}

// Invalidate drops a line if present, returning whether it was dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	i, hit := c.find(c.set(lineAddr))
	if !hit {
		return false, false
	}
	dirty = c.lines[i]&dirtyBit != 0
	c.lines[i] = 0
	return true, dirty
}

// MarkDirty sets the dirty bit of a resident line (e.g. a writeback from
// an upper level landing in this one). It reports whether the line was
// resident.
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	set, tag := c.set(lineAddr)
	i, hit := c.find(set, tag)
	if hit {
		c.lines[i] |= dirtyBit
		c.restamp(set, i-set*c.cfg.Ways)
	}
	return hit
}

// Clone returns a deep copy of the cache: content, LRU state, and hit
// counters all duplicated, so the copy and the original evolve
// independently. Every System uses this to take its own warmed SRAM
// stack from a warmup image.
//
//tdlint:copier Cache
func (c *Cache) Clone() *Cache {
	d := *c
	d.lines = append([]uint64(nil), c.lines...)
	d.rec = append([]uint64(nil), c.rec...)
	return &d
}

// Bytes reports the memory the cache's arrays hold: 8 B per line and
// 16 B per set.
func (c *Cache) Bytes() int64 {
	return 8 * int64(len(c.lines)+len(c.rec))
}

// Occupancy reports the fraction of valid lines (warmup diagnostics).
func (c *Cache) Occupancy() float64 {
	n := 0
	for _, l := range c.lines {
		if l != 0 {
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
