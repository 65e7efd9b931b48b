package dramcache

import (
	"fmt"
	"math/rand"
	"testing"

	"tdram/internal/mem"
)

func newStore(t *testing.T, lines uint64, ways int) *tagStore {
	t.Helper()
	ts, err := newTagStore(lines*mem.LineSize, ways)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTagStoreErrors(t *testing.T) {
	if _, err := newTagStore(64, 0); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := newTagStore(0, 1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := newTagStore(64*5, 2); err == nil {
		t.Error("non-divisible capacity accepted")
	}
}

func TestDirectMappedFlow(t *testing.T) {
	ts := newStore(t, 8, 1)
	// Cold read: read to invalid counts as read-miss-clean (Table II).
	out, _, _ := ts.access(3, false, true)
	if out != mem.ReadMissClean {
		t.Fatalf("cold read outcome = %v", out)
	}
	// The fill is pending.
	if pr := ts.probe(3); !pr.Hit || !pr.Inflight {
		t.Fatalf("installed line probe = %+v", pr)
	}
	if !ts.fillDone(3) {
		t.Fatal("fillDone missed the line")
	}
	if pr := ts.probe(3); pr.Inflight {
		t.Fatal("inflight survived fillDone")
	}
	out, _, _ = ts.access(3, false, true)
	if out != mem.ReadHit {
		t.Errorf("second read = %v", out)
	}
	// Write hit dirties.
	out, _, _ = ts.access(3, true, true)
	if out != mem.WriteHit {
		t.Errorf("write = %v", out)
	}
	// Conflicting read (same set, 8 sets): line 11 evicts dirty line 3.
	out, victim, vd := ts.access(11, false, true)
	if out != mem.ReadMissDirty || victim != 3 || !vd {
		t.Errorf("conflict read = %v victim=%d dirty=%v", out, victim, vd)
	}
}

func TestWriteMissOutcomes(t *testing.T) {
	ts := newStore(t, 8, 1)
	out, _, _ := ts.access(5, true, true)
	if out != mem.WriteMissClean {
		t.Fatalf("write to invalid = %v", out)
	}
	// Write demands install full dirty lines, never inflight.
	if pr := ts.probe(5); !pr.Hit || pr.Inflight || !pr.Dirty {
		t.Fatalf("after write install: %+v", pr)
	}
	out, victim, vd := ts.access(13, true, true)
	if out != mem.WriteMissDirty || victim != 5 || !vd {
		t.Errorf("conflicting write = %v victim=%d dirty=%v", out, victim, vd)
	}
}

func TestNoInstallPeek(t *testing.T) {
	ts := newStore(t, 8, 1)
	out, _, _ := ts.access(2, false, false)
	if out != mem.ReadMissClean {
		t.Fatalf("outcome = %v", out)
	}
	if pr := ts.probe(2); pr.Hit {
		t.Error("install=false modified state")
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	ts := newStore(t, 16, 2) // 8 sets, 2 ways
	// Lines 0, 8, 16 share set 0.
	ts.access(0, false, true)
	ts.access(8, false, true)
	ts.access(0, false, true) // 0 MRU
	_, victim, _ := ts.access(16, false, true)
	if victim != 8 {
		t.Errorf("victim = %d, want LRU 8", victim)
	}
	if pr := ts.probe(0); !pr.Hit {
		t.Error("MRU line evicted")
	}
}

func TestMarkDirtyAndOccupancy(t *testing.T) {
	ts := newStore(t, 8, 1)
	ts.access(1, false, true)
	if !ts.markDirty(1) {
		t.Error("markDirty missed resident line")
	}
	if ts.markDirty(99) {
		t.Error("markDirty hit absent line")
	}
	v, d := ts.occupancy()
	if v != 0.125 || d != 0.125 {
		t.Errorf("occupancy = %v/%v", v, d)
	}
}

func TestFillDoneAfterEviction(t *testing.T) {
	ts := newStore(t, 8, 1)
	ts.access(0, false, true)
	ts.access(8, true, true) // evicts 0 before its fill
	if ts.fillDone(0) {
		t.Error("fillDone found evicted line")
	}
}

// refLine and refStore are the tag store's earlier layout, a 24-byte
// struct per line with its LRU tick inline, kept as the reference model
// for the packed store.
type refLine struct {
	tag      uint64
	valid    bool
	dirty    bool
	inflight bool
	lru      uint64
}

type refStore struct {
	sets    uint64
	ways    int
	lines   []refLine
	lruTick uint64
	retired map[uint64]bool
}

func newRefStore(sets uint64, ways int) *refStore {
	return &refStore{sets: sets, ways: ways, lines: make([]refLine, sets*uint64(ways)), retired: map[uint64]bool{}}
}

func (t *refStore) setOf(line uint64) (set, tag uint64, ways []refLine) {
	set, tag = line%t.sets, line/t.sets
	base := set * uint64(t.ways)
	return set, tag, t.lines[base : base+uint64(t.ways)]
}

// victim is the first invalid way, else the lowest LRU tick, ties to the
// lowest way.
func (t *refStore) victim(ways []refLine) *refLine {
	var v *refLine
	for w := range ways {
		l := &ways[w]
		if v == nil || !l.valid || (v.valid && l.lru < v.lru) {
			if v == nil || v.valid {
				v = l
			}
		}
	}
	return v
}

func (t *refStore) retire(line uint64) (dirty []uint64) {
	set, _, ways := t.setOf(line)
	if t.retired[set] {
		return nil
	}
	t.retired[set] = true
	for w := range ways {
		if ways[w].valid && ways[w].dirty {
			dirty = append(dirty, ways[w].tag*t.sets+set)
		}
		ways[w] = refLine{}
	}
	return dirty
}

func (t *refStore) probe(line uint64) probeResult {
	set, tag, ways := t.setOf(line)
	if t.retired[set] {
		return probeResult{}
	}
	for _, l := range ways {
		if l.valid && l.tag == tag {
			return probeResult{Hit: true, Dirty: l.dirty, Inflight: l.inflight}
		}
	}
	r := probeResult{}
	if v := t.victim(ways); v.valid {
		r.Dirty = v.dirty
		r.Victim = v.tag*t.sets + set
	}
	return r
}

func (t *refStore) access(line uint64, write, install bool) (mem.Outcome, uint64, bool) {
	kind := mem.Read
	if write {
		kind = mem.Write
	}
	set, tag, ways := t.setOf(line)
	if t.retired[set] {
		return mem.ClassifyOutcome(kind, false, false), 0, false
	}
	t.lruTick++
	for w := range ways {
		l := &ways[w]
		if l.valid && l.tag == tag {
			l.lru = t.lruTick
			if write {
				l.dirty = true
				return mem.WriteHit, 0, false
			}
			return mem.ReadHit, 0, false
		}
	}
	v := t.victim(ways)
	var victim uint64
	if v.valid {
		victim = v.tag*t.sets + set
	}
	dirty := v.valid && v.dirty
	out := mem.ClassifyOutcome(kind, false, dirty)
	if install {
		*v = refLine{tag: tag, valid: true, dirty: write, inflight: !write, lru: t.lruTick}
	}
	return out, victim, dirty
}

// resident returns line's way, or nil.
func (t *refStore) resident(line uint64) *refLine {
	_, tag, ways := t.setOf(line)
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return &ways[w]
		}
	}
	return nil
}

func (t *refStore) fillDone(line uint64) bool {
	l := t.resident(line)
	if l != nil {
		l.inflight = false
	}
	return l != nil
}

func (t *refStore) markDirty(line uint64) bool {
	l := t.resident(line)
	if l != nil {
		l.dirty = true
	}
	return l != nil
}

// TestTagStoreReferenceProperty drives the packed store and the
// reference model through the same random sequences of access (every
// write and install combination), probe, fillDone, markDirty and retire,
// and requires every return value to agree. The geometries cover
// direct-mapped, 2- and 8-way stores and a non-power-of-two set count;
// one line in two carries a tag in the top bits a line address can use.
func TestTagStoreReferenceProperty(t *testing.T) {
	for _, g := range []struct {
		sets uint64
		ways int
	}{{16, 1}, {8, 2}, {4, 8}, {12, 1}, {12, 2}, {12, 8}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			for seed := int64(1); seed <= 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ts := newStore(t, g.sets*uint64(g.ways), g.ways)
				ref := newRefStore(g.sets, g.ways)
				span := 3 * g.sets * uint64(g.ways)
				for i := 0; i < 2000; i++ {
					line := uint64(rng.Int63n(int64(span)))
					if rng.Intn(2) == 0 {
						line += 1<<58 - 2*span
					}
					var got, want any
					// About two retires a sequence, so most of it runs on
					// sets still in service.
					switch op := rng.Intn(1000); {
					case op < 600:
						write, install := rng.Intn(2) == 0, rng.Intn(4) != 0
						o, v, d := ts.access(line, write, install)
						got = fmt.Sprint(o, v, d)
						o, v, d = ref.access(line, write, install)
						want = fmt.Sprint(o, v, d)
					case op < 750:
						got, want = ts.probe(line), ref.probe(line)
					case op < 870:
						got, want = ts.fillDone(line), ref.fillDone(line)
					case op < 999:
						got, want = ts.markDirty(line), ref.markDirty(line)
					default:
						got, want = fmt.Sprint(ts.retire(line)), fmt.Sprint(ref.retire(line))
					}
					if got != want {
						t.Fatalf("seed %d, op %d on line %#x: packed store returned %v, reference %v", seed, i, line, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkTagStoreAccess times tagStore.access on a 16 MiB store
// (262,144 lines) driven by a fixed LCG line sequence: direct-mapped
// hits, direct-mapped accesses that miss half the time, and an 8-way
// store under a mixed read/write sequence over twice its capacity.
func BenchmarkTagStoreAccess(b *testing.B) {
	const capacity = 16 << 20
	const lines = capacity / 64
	for _, bc := range []struct {
		name  string
		ways  int
		span  uint64 // lines the sequence draws from
		write uint64 // one access in write is a store; 0 for none
	}{
		{"direct-mapped/hits", 1, lines, 0},
		{"direct-mapped/half-misses", 1, 2 * lines, 0},
		{"8-way/mixed", 8, 2 * lines, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ts, err := newTagStore(capacity, bc.ways)
			if err != nil {
				b.Fatal(err)
			}
			for l := uint64(0); l < lines; l++ {
				ts.access(l, false, true)
			}
			x := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				r := x >> 24
				ts.access(r%bc.span, bc.write != 0 && r%bc.write == 0, true)
			}
		})
	}
}
