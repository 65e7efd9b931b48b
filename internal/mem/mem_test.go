package mem

import (
	"testing"
	"testing/quick"
)

func TestRequestLine(t *testing.T) {
	r := Request{Addr: 0x1234_0000 + 128}
	if r.Line() != (0x1234_0000+128)/64 {
		t.Errorf("Line = %d", r.Line())
	}
}

func TestCompleteOnce(t *testing.T) {
	n := 0
	r := &Request{OnDone: func(*Request) { n++ }}
	r.Complete()
	if n != 1 || !r.Completed() {
		t.Fatalf("n=%d completed=%v", n, r.Completed())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Complete did not panic")
		}
	}()
	r.Complete()
}

// TestCompleteStaleReferencePanics keeps Complete's double-completion
// panic across recycling: once a pooled request is released and handed
// out again, completing it through a reference from its previous life
// must panic instead of completing the new demand.
func TestCompleteStaleReferencePanics(t *testing.T) {
	var p RequestPool
	r := p.Get()
	gen := r.Gen()
	r.Complete()
	r.Release()
	if again := p.Get(); again != r || again.Gen() == gen || again.Completed() {
		t.Fatalf("pool handed out %p gen %d completed=%v, want the released record %p in a fresh generation",
			again, again.Gen(), again.Completed(), r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("completing through a reference from the previous life did not panic")
		}
	}()
	r.CompleteGen(gen)
}

// TestReleaseBeforeComplete covers a posted write whose transaction
// issues inside its own Enqueue: the controller releases it before the
// intake completes it, and the record returns to the pool only then.
func TestReleaseBeforeComplete(t *testing.T) {
	var p RequestPool
	r := p.Get()
	r.Kind = Write
	r.Release()
	if p.Get() == r {
		t.Fatal("a released but uncompleted request was handed out again")
	}
	r.Complete()
	if p.Get() != r {
		t.Fatal("Complete did not return the released request to its pool")
	}
}

// TestReleaseTwicePanics and the GC-owned case: a literal request has
// no pool, so Release is a no-op however often it runs.
func TestReleaseTwicePanics(t *testing.T) {
	lit := &Request{}
	lit.Complete()
	lit.Release()
	lit.Release()

	var p RequestPool
	r := p.Get()
	r.Complete()
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	r.Release()
}

func TestCompleteNilCallback(t *testing.T) {
	r := &Request{}
	r.Complete() // must not panic
	if !r.Completed() {
		t.Error("Completed = false")
	}
}

func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		kind        Kind
		hit, dirty  bool
		want        Outcome
		read, isHit bool
	}{
		{Read, true, false, ReadHit, true, true},
		{Read, true, true, ReadHit, true, true}, // hit to dirty is still a read hit
		{Read, false, false, ReadMissClean, true, false},
		{Read, false, true, ReadMissDirty, true, false},
		{Write, true, false, WriteHit, false, true},
		{Write, true, true, WriteHit, false, true},
		{Write, false, false, WriteMissClean, false, false},
		{Write, false, true, WriteMissDirty, false, false},
	}
	for _, c := range cases {
		got := ClassifyOutcome(c.kind, c.hit, c.dirty)
		if got != c.want {
			t.Errorf("Classify(%v,%v,%v) = %v, want %v", c.kind, c.hit, c.dirty, got, c.want)
		}
		if got.IsRead() != c.read {
			t.Errorf("%v.IsRead() = %v", got, got.IsRead())
		}
		if got.IsHit() != c.isHit {
			t.Errorf("%v.IsHit() = %v", got, got.IsHit())
		}
	}
	if !ReadMissDirty.IsMissDirty() || !WriteMissDirty.IsMissDirty() || ReadMissClean.IsMissDirty() {
		t.Error("IsMissDirty misclassifies")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o := ReadHit; o < Outcome(NumOutcomes); o++ {
		if o.String() == "" {
			t.Errorf("empty string for %d", o)
		}
	}
	if Kind(Read).String() != "read" || Kind(Write).String() != "write" {
		t.Error("Kind strings wrong")
	}
}

func testMap() AddrMap { return AddrMap{Channels: 8, Banks: 16, Columns: 32, Rows: 64} }

func TestAddrMapValidate(t *testing.T) {
	if err := testMap().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testMap()
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rows validated")
	}
}

func TestAddrMapSizes(t *testing.T) {
	m := testMap()
	wantLines := uint64(8 * 16 * 32 * 64)
	if m.Lines() != wantLines {
		t.Errorf("Lines = %d, want %d", m.Lines(), wantLines)
	}
	if m.Bytes() != wantLines*64 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
}

func TestAddrMapChannelInterleave(t *testing.T) {
	// Consecutive lines must hit consecutive channels (Ch is the
	// least-significant field of RoCoRaBaCh).
	m := testMap()
	for i := uint64(0); i < 16; i++ {
		if got := m.Decode(i).Channel; got != int(i%8) {
			t.Errorf("line %d channel = %d, want %d", i, got, i%8)
		}
	}
}

func TestAddrMapRoundTrip(t *testing.T) {
	m := testMap()
	f := func(line uint64) bool {
		line %= m.Lines()
		c := m.Decode(line)
		if c.Channel < 0 || c.Channel >= m.Channels || c.Bank < 0 || c.Bank >= m.Banks ||
			c.Column < 0 || c.Column >= m.Columns || c.Row < 0 || c.Row >= m.Rows {
			return false
		}
		return m.Encode(c) == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAddrMapBijective(t *testing.T) {
	// Small exhaustive check: no two in-range lines decode identically.
	m := AddrMap{Channels: 2, Banks: 4, Columns: 4, Rows: 4}
	seen := map[Coord]uint64{}
	for line := uint64(0); line < m.Lines(); line++ {
		c := m.Decode(line)
		if prev, dup := seen[c]; dup {
			t.Fatalf("lines %d and %d both decode to %+v", prev, line, c)
		}
		seen[c] = line
	}
}
