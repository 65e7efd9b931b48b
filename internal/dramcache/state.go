// Package dramcache implements the DRAM-cache controller and the six
// evaluated designs from the paper: Intel Cascade Lake-style
// tags-in-ECC caching, Alloy, BEAR, NDC, TDRAM, and an Ideal
// (zero-latency-tag) upper bound, plus a no-DRAM-cache pass-through used
// by Figs. 2 and 12. The controller models per-channel read/write
// queues, FR-FCFS scheduling with write draining, a conflicting-request
// buffer, fills and writebacks against the DDR5 backing store, and the
// TDRAM device behaviours: in-DRAM tag compare, conditional column
// operation, the HM bus, the flush buffer and early tag probing.
package dramcache

import (
	"fmt"
	"math/bits"

	"tdram/internal/mem"
)

// A line's state is one packed word: tag<<tagShift | lineValid |
// lineDirty | lineInflight. A line address is a byte address over 64,
// so a tag needs at most 58 bits. The zero word is an invalid line, and
// an invalid line's word is always zero.
const (
	lineInflight uint64 = 1 << iota // fill from main memory pending
	lineDirty
	lineValid
	tagShift = 3
)

// tagStore is the functional content state of the DRAM cache: a
// set-associative (ways=1 gives the paper's default direct-mapped)
// insert-on-miss tag array. It tracks only metadata — the simulator never
// moves real data — and is the single source of truth every design's tag
// check consults.
type tagStore struct {
	sets  uint64
	ways  int
	lines []uint64 // one packed word per line, sets × ways

	// lru holds each line's last-use tick (larger = more recently used).
	// It exists only when ways > 1: a direct-mapped store has no victim
	// to choose, so it never compares ticks and never counts them.
	lru     []uint64
	lruTick uint64

	// Power-of-two set decode: replace the modulo/divide pair — which
	// dominates the tag-check cost for the default direct-mapped store —
	// with mask and shift. pow2 false falls back to the general arithmetic.
	pow2  bool
	mask  uint64
	shift uint

	// Graceful degradation under fault injection: errs counts
	// retry-exhausted (uncorrectable) errors per set; sets in retired are
	// out of service — every access misses clean without installing, so
	// the controller serves them from the backing store. Both maps are
	// lazily allocated: fault-free runs never touch them.
	retired map[uint64]bool
	errs    map[uint64]int
}

// newTagStore sizes the store for capacityBytes of 64 B lines.
func newTagStore(capacityBytes uint64, ways int) (*tagStore, error) {
	if ways <= 0 {
		return nil, fmt.Errorf("dramcache: ways = %d", ways)
	}
	lines := capacityBytes / mem.LineSize
	if lines == 0 || lines%uint64(ways) != 0 {
		return nil, fmt.Errorf("dramcache: capacity %d not divisible into %d ways", capacityBytes, ways)
	}
	t := &tagStore{sets: lines / uint64(ways), ways: ways, lines: make([]uint64, lines)}
	if ways > 1 {
		t.lru = make([]uint64, lines)
	}
	if t.sets&(t.sets-1) == 0 {
		t.pow2 = true
		t.mask = t.sets - 1
		t.shift = uint(bits.TrailingZeros64(t.sets))
	}
	return t, nil
}

func (t *tagStore) set(line uint64) (uint64, uint64) {
	if t.pow2 {
		return line & t.mask, line >> t.shift
	}
	return line % t.sets, line / t.sets
}

// setIndex is the set-only half of set, for the retirement bookkeeping.
func (t *tagStore) setIndex(line uint64) uint64 {
	if t.pow2 {
		return line & t.mask
	}
	return line % t.sets
}

// lineOf reconstructs a line address from set and tag.
func (t *tagStore) lineOf(set, tag uint64) uint64 { return tag*t.sets + set }

// probe is a read-only lookup.
type probeResult struct {
	Hit      bool
	Dirty    bool // dirty bit of the hit line, or of the LRU victim on miss
	Inflight bool // the hit line's fill is still pending
	Victim   uint64
}

// isRetired reports whether line's set is out of service.
func (t *tagStore) isRetired(line uint64) bool {
	return t.retired != nil && t.retired[t.setIndex(line)]
}

// recordError charges one uncorrectable error against line's set and
// returns the set's running count (0 once the set is already retired).
func (t *tagStore) recordError(line uint64) int {
	set := t.setIndex(line)
	if t.retired != nil && t.retired[set] {
		return 0
	}
	if t.errs == nil {
		t.errs = make(map[uint64]int)
	}
	t.errs[set]++
	return t.errs[set]
}

// retire takes line's set out of service, invalidating its ways, and
// returns the line addresses of any dirty victims that must still be
// written back. Idempotent.
func (t *tagStore) retire(line uint64) (dirty []uint64) {
	set := t.setIndex(line)
	if t.retired == nil {
		t.retired = make(map[uint64]bool)
	}
	if t.retired[set] {
		return nil
	}
	t.retired[set] = true
	base := set * uint64(t.ways)
	for i := base; i < base+uint64(t.ways); i++ {
		if w := t.lines[i]; w&lineDirty != 0 {
			dirty = append(dirty, t.lineOf(set, w>>tagShift))
		}
		t.lines[i] = 0
	}
	return dirty
}

// find returns the index in lines of the word holding tag in set and
// whether it is resident; on a miss the index is the set's first word.
func (t *tagStore) find(set, tag uint64) (i uint64, hit bool) {
	base := set * uint64(t.ways)
	key := tag<<tagShift | lineValid
	for i = base; i < base+uint64(t.ways); i++ {
		if t.lines[i]&^(lineDirty|lineInflight) == key {
			return i, true
		}
	}
	return base, false
}

// victim returns the index of the way a miss into the set starting at
// base fills: the first invalid way, else the least recently used, ties
// to the lowest way.
func (t *tagStore) victim(base uint64) uint64 {
	if t.lru == nil {
		return base
	}
	v := base
	for i := base; i < base+uint64(t.ways); i++ {
		if t.lines[i] == 0 {
			return i
		}
		if t.lru[i] < t.lru[v] {
			v = i
		}
	}
	return v
}

// touch makes line i the most recently used. Only the order of the
// ticks matters, so a direct-mapped store, which keeps none, skips it.
func (t *tagStore) touch(i uint64) {
	if t.lru != nil {
		t.lruTick++
		t.lru[i] = t.lruTick
	}
}

func (t *tagStore) probe(line uint64) probeResult {
	if t.isRetired(line) {
		return probeResult{}
	}
	set, tag := t.set(line)
	i, hit := t.find(set, tag)
	if hit {
		w := t.lines[i]
		return probeResult{Hit: true, Dirty: w&lineDirty != 0, Inflight: w&lineInflight != 0}
	}
	r := probeResult{}
	if w := t.lines[t.victim(i)]; w != 0 {
		r.Dirty = w&lineDirty != 0
		r.Victim = t.lineOf(set, w>>tagShift)
	}
	return r
}

// access performs the tag check and the insert-on-miss state transition
// in one atomic step (the commit point of the access's tag check). It
// returns the paper's Table II outcome and, when a valid victim is
// displaced, its line address and dirty bit.
//
// write=true marks the line dirty (demand writes carry the full 64 B).
// A read miss installs its line inflight until the fill arrives;
// writes install complete lines and are never inflight.
// install=false (BEAR's bypassed fills) evaluates the outcome without
// modifying state.
func (t *tagStore) access(line uint64, write, install bool) (out mem.Outcome, victim uint64, victimDirty bool) {
	kind := mem.Read
	if write {
		kind = mem.Write
	}
	if t.isRetired(line) {
		// Retired sets never hit and never install: the access behaves as
		// a miss-clean the controller resolves against the backing store.
		return mem.ClassifyOutcome(kind, false, false), 0, false
	}
	set, tag := t.set(line)
	i, hit := t.find(set, tag)
	if hit {
		t.touch(i)
		if write {
			t.lines[i] |= lineDirty
			return mem.WriteHit, 0, false
		}
		return mem.ReadHit, 0, false
	}
	// Miss: classify against the LRU victim, then install.
	i = t.victim(i)
	if w := t.lines[i]; w != 0 {
		victim = t.lineOf(set, w>>tagShift)
		victimDirty = w&lineDirty != 0
	}
	out = mem.ClassifyOutcome(kind, false, victimDirty)
	if !install {
		return out, victim, victimDirty
	}
	w := tag<<tagShift | lineValid | lineInflight
	if write {
		w = tag<<tagShift | lineValid | lineDirty
	}
	t.lines[i] = w
	t.touch(i)
	return out, victim, victimDirty
}

// fillDone clears the inflight bit of a previously installed read miss.
// It reports false when the line was displaced before its fill arrived
// (possible under heavy conflict traffic; the fill is then dropped).
func (t *tagStore) fillDone(line uint64) bool {
	i, hit := t.find(t.set(line))
	if hit {
		t.lines[i] &^= lineInflight
	}
	return hit
}

// markDirty sets the dirty bit of a resident line (used when a waiting
// write drains from the conflict buffer after its line's fill).
func (t *tagStore) markDirty(line uint64) bool {
	i, hit := t.find(t.set(line))
	if hit {
		t.lines[i] |= lineDirty
	}
	return hit
}

// occupancy reports valid and dirty line fractions (diagnostics). It
// scans the whole array at the end of every run, so it counts without
// branches: (w|-w)>>63 is 1 for any non-zero (valid) word, and an
// invalid word is zero, so its dirty bit needs no valid check.
func (t *tagStore) occupancy() (valid, dirty float64) {
	var v, d uint64
	for _, w := range t.lines {
		v += (w | -w) >> 63
		d += w & lineDirty
	}
	n := float64(len(t.lines))
	return float64(v) / n, float64(d/lineDirty) / n
}
