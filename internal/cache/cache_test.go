package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tdram/internal/sim"
	"tdram/internal/workload"
)

func small(t *testing.T, ways int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", Size: uint64(ways) * 4 * 64, Ways: ways, Latency: sim.NS(1)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{Size: 64, Ways: 0}); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{Size: 100, Ways: 3}); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := New(Config{Size: 0, Ways: 1}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(Config{Size: maxWays * 64, Ways: maxWays}); err != nil {
		t.Errorf("%d ways rejected: %v", maxWays, err)
	}
	if _, err := New(Config{Size: (maxWays + 1) * 64, Ways: maxWays + 1}); err == nil {
		t.Errorf("%d ways accepted; the recency word orders at most %d", maxWays+1, maxWays)
	}
}

func TestHitMiss(t *testing.T) {
	c := small(t, 2) // 4 sets, 2 ways
	if r := c.Access(0, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Error("repeat access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if !c.Lookup(0) || c.Lookup(1) {
		t.Error("Lookup disagrees with contents")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t, 2) // 4 sets
	// Three lines mapping to set 0: 0, 4, 8.
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // 0 is now MRU
	r := c.Access(8, false)
	if r.Hit || !r.Evicted {
		t.Fatalf("fill result %+v", r)
	}
	if r.VictimLine != 4 {
		t.Errorf("victim = %d, want 4 (LRU)", r.VictimLine)
	}
	if !c.Lookup(0) || c.Lookup(4) || !c.Lookup(8) {
		t.Error("contents after eviction wrong")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := small(t, 1) // direct-mapped, 4 sets
	c.Access(0, true)
	r := c.Access(4, false)
	if !r.Evicted || !r.VictimDirty || r.VictimLine != 0 {
		t.Errorf("dirty eviction result %+v", r)
	}
	if c.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.DirtyEvictions)
	}
	// Clean victim: no writeback flag.
	r = c.Access(8, false)
	if r.VictimDirty {
		t.Error("clean victim flagged dirty")
	}
}

func TestStoreMarksDirty(t *testing.T) {
	c := small(t, 1)
	c.Access(0, false)
	c.Access(0, true) // hit-store dirties
	r := c.Access(4, false)
	if !r.VictimDirty {
		t.Error("hit-store did not mark dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t, 2)
	c.Access(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Errorf("invalidate = %v,%v", present, dirty)
	}
	if c.Lookup(0) {
		t.Error("line still present")
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Error("second invalidate found line")
	}
}

func TestMarkDirty(t *testing.T) {
	c := small(t, 2)
	c.Access(0, false)
	if !c.MarkDirty(0) {
		t.Error("MarkDirty missed resident line")
	}
	if c.MarkDirty(99) {
		t.Error("MarkDirty hit absent line")
	}
	r := c.Access(4, false)
	_ = r
	c.Access(8, false) // evicts LRU
	if c.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d after MarkDirty eviction", c.DirtyEvictions)
	}
}

func TestPrefersInvalidWay(t *testing.T) {
	c := small(t, 4) // 4 ways, 4 sets
	c.Access(0, false)
	// Three more fills to set 0 must use invalid ways, not evict.
	for _, l := range []uint64{4, 8, 12} {
		if r := c.Access(l, false); r.Evicted {
			t.Errorf("fill of %d evicted despite invalid ways", l)
		}
	}
	if r := c.Access(16, false); !r.Evicted {
		t.Error("full set did not evict")
	}
}

func TestOccupancy(t *testing.T) {
	c := small(t, 2) // 8 lines
	if c.Occupancy() != 0 {
		t.Error("fresh cache occupied")
	}
	c.Access(0, false)
	c.Access(1, false)
	if got := c.Occupancy(); got != 0.25 {
		t.Errorf("occupancy = %v", got)
	}
}

// Property: a cache never holds two copies of one line, and hit/miss
// matches a reference map model.
func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New(Config{Name: "p", Size: 16 * 64, Ways: 4, Latency: 0})
		if err != nil {
			return false
		}
		// Reference: per-set LRU lists.
		type ref struct{ lines []uint64 }
		refs := make([]ref, c.Sets())
		for _, a := range addrs {
			la := uint64(a % 64)
			set := int(la % uint64(c.Sets()))
			r := &refs[set]
			hit := false
			for i, l := range r.lines {
				if l == la {
					hit = true
					r.lines = append(r.lines[:i], r.lines[i+1:]...)
					r.lines = append(r.lines, la)
					break
				}
			}
			if !hit {
				if len(r.lines) == 4 {
					r.lines = r.lines[1:]
				}
				r.lines = append(r.lines, la)
			}
			got := c.Access(la, false)
			if got.Hit != hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refLine and refCache are the cache's earlier layout, a 24-byte struct
// per line with its LRU tick inline, kept as the reference model for the
// packed words.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type refCache struct {
	sets    uint64
	ways    int
	lines   []refLine
	lruTick uint64

	hits, misses, evictions, dirtyEvictions uint64
}

func (c *refCache) setOf(lineAddr uint64) (set, tag uint64, ways []refLine) {
	set, tag = lineAddr%c.sets, lineAddr/c.sets
	base := set * uint64(c.ways)
	return set, tag, c.lines[base : base+uint64(c.ways)]
}

func (c *refCache) resident(lineAddr uint64) *refLine {
	_, tag, ways := c.setOf(lineAddr)
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return &ways[w]
		}
	}
	return nil
}

func (c *refCache) Access(lineAddr uint64, dirty bool) Result {
	set, tag, ways := c.setOf(lineAddr)
	c.lruTick++
	if l := c.resident(lineAddr); l != nil {
		l.lru = c.lruTick
		l.dirty = l.dirty || dirty
		c.hits++
		return Result{Hit: true}
	}
	// The first invalid way, else the lowest LRU tick, ties to the
	// lowest way.
	var v *refLine
	for w := range ways {
		l := &ways[w]
		if v == nil || !l.valid || (v.valid && l.lru < v.lru) {
			if v == nil || v.valid {
				v = l
			}
		}
	}
	c.misses++
	res := Result{}
	if v.valid {
		res = Result{Evicted: true, VictimDirty: v.dirty, VictimLine: v.tag*c.sets + set}
		c.evictions++
		if v.dirty {
			c.dirtyEvictions++
		}
	}
	*v = refLine{tag: tag, valid: true, dirty: dirty, lru: c.lruTick}
	return res
}

func (c *refCache) Invalidate(lineAddr uint64) (present, dirty bool) {
	l := c.resident(lineAddr)
	if l == nil {
		return false, false
	}
	l.valid = false
	return true, l.dirty
}

func (c *refCache) MarkDirty(lineAddr uint64) bool {
	l := c.resident(lineAddr)
	if l != nil {
		l.dirty = true
		l.lru = c.lruTick
	}
	return l != nil
}

// tiedAtTick counts the valid ways of lineAddr's set whose tick is the
// current one.
func (c *refCache) tiedAtTick(lineAddr uint64) int {
	_, _, ways := c.setOf(lineAddr)
	n := 0
	for _, l := range ways {
		if l.valid && l.lru == c.lruTick {
			n++
		}
	}
	return n
}

// TestCacheReferenceProperty drives the packed cache and the reference
// model through the same random sequences of Access (loads and stores),
// Invalidate, MarkDirty and Lookup, and requires every return value and
// counter to agree, over direct-mapped, 2-, 8- and 15-way (the most a
// recency word orders) levels and a non-power-of-two set count.
// MarkDirty stamps the current tick without advancing it, so equal ticks
// occur and the victim tie-break is tested. Seeds 1-50 draw each
// operation independently; seeds 51-100 mix in dirty runs, an Access
// followed by MarkDirty on resident lines of its set with no Access
// between, so ties of three or more ways form. The test counts those in
// the reference model and fails if a geometry with three or more ways
// saw none.
func TestCacheReferenceProperty(t *testing.T) {
	for _, g := range []struct {
		sets uint64
		ways int
	}{{16, 1}, {8, 2}, {4, 8}, {12, 1}, {12, 2}, {12, 8}, {1, maxWays}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			ties := 0
			for seed := int64(1); seed <= 100; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c, err := New(Config{Name: "p", Size: g.sets * uint64(g.ways) * 64, Ways: g.ways})
				if err != nil {
					t.Fatal(err)
				}
				ref := &refCache{sets: g.sets, ways: g.ways, lines: make([]refLine, g.sets*uint64(g.ways))}
				span := 3 * g.sets * uint64(g.ways)
				check := func(i int, line uint64, got, want any) {
					t.Helper()
					if got != want {
						t.Fatalf("seed %d, op %d on line %#x: packed cache returned %v, reference %v", seed, i, line, got, want)
					}
				}
				for i := 0; i < 2000; i++ {
					line := uint64(rng.Int63n(int64(span)))
					if rng.Intn(2) == 0 {
						line += 1<<58 - 2*span
					}
					switch op := rng.Intn(100); {
					case seed > 50 && op < 30:
						store := rng.Intn(2) == 0
						check(i, line, c.Access(line, store), ref.Access(line, store))
						set, _, ways := ref.setOf(line)
						for k := rng.Intn(2 * g.ways); k > 0; k-- {
							l := line
							if w := ways[rng.Intn(g.ways)]; w.valid {
								l = w.tag*g.sets + set
							}
							check(i, l, c.MarkDirty(l), ref.MarkDirty(l))
						}
						if ref.tiedAtTick(line) >= 3 {
							ties++
						}
					case op < 60:
						store := rng.Intn(2) == 0
						check(i, line, c.Access(line, store), ref.Access(line, store))
					case op < 70:
						p, d := c.Invalidate(line)
						rp, rd := ref.Invalidate(line)
						check(i, line, fmt.Sprint(p, d), fmt.Sprint(rp, rd))
					case op < 90:
						check(i, line, c.MarkDirty(line), ref.MarkDirty(line))
					default:
						check(i, line, c.Lookup(line), ref.resident(line) != nil)
					}
				}
				if c.Hits != ref.hits || c.Misses != ref.misses || c.Evictions != ref.evictions || c.DirtyEvictions != ref.dirtyEvictions {
					t.Fatalf("seed %d: counters %d/%d/%d/%d, reference %d/%d/%d/%d", seed,
						c.Hits, c.Misses, c.Evictions, c.DirtyEvictions, ref.hits, ref.misses, ref.evictions, ref.dirtyEvictions)
				}
			}
			if g.ways >= 3 && ties == 0 {
				t.Errorf("no dirty run tied three or more ways")
			}
			t.Logf("%d dirty runs tied three or more ways", ties)
		})
	}
}

func TestHierarchyFiltering(t *testing.T) {
	h := NewHierarchy()
	var wbs []uint64
	h.WriteBack = func(l uint64) { wbs = append(wbs, l) }

	r := h.Access(100, false)
	if !r.Missed || r.MissLine != 100 {
		t.Fatalf("cold access: %+v", r)
	}
	r = h.Access(100, false)
	if r.Missed {
		t.Error("second access missed")
	}
	if r.Latency != sim.NS(1) {
		t.Errorf("L1 hit latency = %v", r.Latency)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy()
	h.Access(100, false)
	// Evict 100 from L1 by filling its set (L1 32KiB/8w/64B = 64 sets):
	// lines 100+64k map to the same L1 set.
	for k := 1; k <= 8; k++ {
		h.Access(100+uint64(k*64), false)
	}
	r := h.Access(100, false)
	if r.Missed {
		t.Error("L2 should have held the line")
	}
	if r.Latency != sim.NS(5) {
		t.Errorf("L1miss+L2hit latency = %v, want 5ns", r.Latency)
	}
}

func TestHierarchyWriteback(t *testing.T) {
	h := NewHierarchy()
	var wbs []uint64
	h.WriteBack = func(l uint64) { wbs = append(wbs, l) }
	// Dirty many distinct lines mapping over L2 (512 KiB = 8192 lines);
	// writing 3x that many lines must force dirty L2 evictions.
	n := 0
	for i := uint64(0); i < 8192*3; i++ {
		r := h.Access(i*7+3, true)
		if r.Missed {
			n++
		}
	}
	if len(wbs) == 0 {
		t.Fatal("no writebacks escaped L2 despite dirty working set 3x its size")
	}
	if n == 0 {
		t.Fatal("no misses")
	}
}

func TestHierarchyStoreDirtyPropagation(t *testing.T) {
	// A store dirties L1; when the line is evicted to L2 and then out of
	// L2, a writeback must appear even though L2 saw a "clean" install.
	h := NewHierarchy()
	var wbs []uint64
	h.WriteBack = func(l uint64) { wbs = append(wbs, l) }
	h.Access(0, true) // dirty in L1
	// Thrash both caches with a large clean scan.
	for i := uint64(1); i < 20000; i++ {
		h.Access(i, false)
	}
	found := false
	for _, w := range wbs {
		if w == 0 {
			found = true
		}
	}
	if !found {
		t.Error("dirtied line never written back through the hierarchy")
	}
}

// BenchmarkHierarchyAccess times Hierarchy.Access on one core's stack.
// The is.D and bfs.22 cases replay core 0's recorded warmup stream (a
// 16 MiB cache, 8 cores, seed 1: the accesses BuildWarmupImage walks)
// through the image's 4 KiB L1 and 64 KiB L2, where almost every access
// misses both levels; the stride case walks a fixed sequence through the
// Table III stack.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, name := range []string{"is.D", "bfs.22"} {
		b.Run(name, func(b *testing.B) {
			spec, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			st := spec.NewStream(0, 8, 16<<20, 1)
			rec := make([]uint64, max(2*st.Lines(), 4096))
			for i := range rec {
				line, store, _ := st.Next()
				rec[i] = line << 1
				if store {
					rec[i] |= 1
				}
			}
			h := NewSizedHierarchy(4<<10, 64<<10)
			h.WriteBack = func(uint64) {}
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				h.Access(rec[j]>>1, rec[j]&1 != 0)
				if j++; j == len(rec) {
					j = 0
				}
			}
		})
	}
	b.Run("stride", func(b *testing.B) {
		h := NewHierarchy()
		h.WriteBack = func(uint64) {}
		for i := 0; i < b.N; i++ {
			h.Access(uint64(i*13)%100000, i%4 == 0)
		}
	})
}
