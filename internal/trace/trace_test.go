package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"tdram/internal/backing"
	"tdram/internal/dram"
	"tdram/internal/dramcache"
	"tdram/internal/mem"
	"tdram/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	events := []Event{
		{Tick: 100, Core: 0, Kind: mem.Read, Line: 42},
		{Tick: 100, Core: 3, Kind: mem.Write, Line: 1 << 40},
		{Tick: 2500, Core: 7, Kind: mem.Read, Line: 0},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestWriterRejectsDisorder(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Append(Event{Tick: 100}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Tick: 50}); err == nil {
		t.Error("out-of-order event accepted")
	}
	if err := w.Append(Event{Tick: 200, Core: 128}); err == nil {
		t.Error("oversized core accepted")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := ReadAll(bytes.NewBufferString("NOTATRACE")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty trace: %v, %d events", err, len(got))
	}
}

// A line is a byte address over 64, so 2^58 - 1 is the last one a trace
// carries: the writer refuses 2^58 and the reader refuses it from a
// stream written by hand.
func TestLineBound(t *testing.T) {
	const last = 1<<58 - 1
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(Event{Tick: 1, Line: last}); err != nil {
		t.Fatalf("line 2^58-1 refused: %v", err)
	}
	if err := w.Append(Event{Tick: 2, Line: last + 1}); err == nil {
		t.Error("writer accepted line 2^58")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadAll(&buf); err != nil || len(got) != 1 || got[0].Line != last {
		t.Errorf("reading line 2^58-1: %v, %+v", err, got)
	}
	raw := append([]byte(Magic), 0, 0)
	raw = binary.AppendUvarint(raw, last+1)
	if _, err := ReadAll(bytes.NewReader(raw)); err == nil {
		t.Error("reader accepted line 2^58")
	}
}

// Property: time-ordered event sequences of lines below 2^58 round-trip
// exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var events []Event
		tick := sim.Tick(0)
		for i := 0; i < int(n); i++ {
			tick += sim.Tick(rng.Intn(10000))
			events = append(events, Event{
				Tick: tick,
				Core: uint8(rng.Intn(128)),
				Kind: mem.Kind(rng.Intn(2)),
				Line: rng.Uint64() >> uint(mem.LineShift+rng.Intn(40)),
			})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range events {
			if w.Append(e) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Event{Tick: 10, Core: 0, Kind: mem.Read, Line: 5})
	w.Append(Event{Tick: 20, Core: 1, Kind: mem.Write, Line: 5})
	w.Append(Event{Tick: 30, Core: 1, Kind: mem.Read, Line: 9})
	w.Flush()
	s, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{Events: 3, Reads: 2, Writes: 1, Cores: 2, Lines: 2, First: 10, Last: 30}
	if s != want {
		t.Errorf("summary = %+v, want %+v", s, want)
	}
}

func newCtl(t *testing.T, d dramcache.Design) (*sim.Simulator, *dramcache.Controller) {
	t.Helper()
	s := sim.New()
	mm, err := backing.New(s, dram.DDR5Params())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := dramcache.New(s, dramcache.DefaultConfig(d, 256<<10), mm)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctl
}

func TestRecorderCapturesDemands(t *testing.T) {
	s, ctl := newCtl(t, dramcache.TDRAM)
	var buf bytes.Buffer
	rec := NewRecorder(ctl, &buf)
	done := 0
	for i := 0; i < 20; i++ {
		req := &mem.Request{ID: uint64(i), Addr: uint64(i*977) * 64, Kind: mem.Read,
			OnDone: func(*mem.Request) { done++ }}
		if !ctl.Enqueue(req) {
			t.Fatal("rejected")
		}
		s.Run(s.Now() + sim.NS(100))
	}
	s.Run(0)
	if rec.Events() != 20 {
		t.Fatalf("recorded %d events", rec.Events())
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 20 || sum.Reads != 20 {
		t.Errorf("summary %+v", sum)
	}
}

func TestPlayerReplaysTrace(t *testing.T) {
	// Synthesize a simple trace and replay it on two designs.
	var events []Event
	rng := rand.New(rand.NewSource(4))
	tick := sim.Tick(0)
	for i := 0; i < 300; i++ {
		tick += sim.Tick(rng.Intn(8000))
		kind := mem.Read
		if rng.Intn(100) < 30 {
			kind = mem.Write
		}
		events = append(events, Event{Tick: tick, Core: uint8(i % 8), Kind: kind,
			Line: uint64(rng.Intn(20000))})
	}
	for _, d := range []dramcache.Design{dramcache.TDRAM, dramcache.CascadeLake} {
		s, ctl := newCtl(t, d)
		p := NewPlayer(s, ctl, events)
		runtime, err := p.Run()
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if runtime <= 0 {
			t.Fatalf("%v: runtime %v", d, runtime)
		}
		if p.Reads() == 0 {
			t.Fatalf("%v: no reads injected", d)
		}
		st := ctl.Stats()
		if st.DemandReads+st.DemandWrites != 300 {
			t.Errorf("%v: demands = %d, want 300", d, st.DemandReads+st.DemandWrites)
		}
	}
}

func TestPlayerPrewarm(t *testing.T) {
	// A trace that revisits its lines: with prewarm, the replayed tail
	// must see hits.
	var events []Event
	tick := sim.Tick(0)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 100; i++ {
			tick += 1000
			events = append(events, Event{Tick: tick, Core: 0, Kind: mem.Read, Line: uint64(i)})
		}
	}
	s, ctl := newCtl(t, dramcache.TDRAM)
	p := NewPlayer(s, ctl, events)
	if err := p.Prewarm(0.5); err != nil { // the first pass warms; the second replays
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats()
	if st.Outcomes.MissRatio() > 0.05 {
		t.Errorf("miss ratio after prewarm = %.2f, want ~0", st.Outcomes.MissRatio())
	}
	if st.DemandReads != 100 {
		t.Errorf("replayed demands = %d, want 100", st.DemandReads)
	}
}

// TestPlayerPrewarmPinned fingerprints a trace replay whose leading half
// warms the cache functionally: a store-heavy trace over a footprint
// several times the cache, so the warm pass installs, evicts and dirties
// lines. The fingerprints pin the warm transition and everything the
// replayed tail sees of it; any change to how Prewarm builds the cache
// content shows up here. Regenerate by running with -v and copying the
// logged values after an intentional model change.
func TestPlayerPrewarmPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var events []Event
	tick := sim.Tick(0)
	for i := 0; i < 2000; i++ {
		tick += sim.Tick(rng.Intn(6000))
		kind := mem.Read
		if rng.Intn(100) < 40 {
			kind = mem.Write
		}
		events = append(events, Event{Tick: tick, Core: uint8(i % 8), Kind: kind,
			Line: uint64(rng.Intn(12000))})
	}
	want := map[dramcache.Design]string{
		dramcache.TDRAM:       "a46d8e0859f89e4cecf0c9dac48918d6824698d59aa4ac2fcfc814f3ad57d22a",
		dramcache.CascadeLake: "736b0d3340eebfbccb600bb5b910e63a35dce92b7ca4dbc4244d8e25055a2cbf",
		dramcache.NoCache:     "0987ac4f5a8bc0b73695a049cd58ebbaae7d26c8e1e5da4386aa4e55b07e757a",
	}
	for d, fp := range want {
		s, ctl := newCtl(t, d)
		p := NewPlayer(s, ctl, events)
		if err := p.Prewarm(0.5); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		runtime, err := p.Run()
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		valid, dirty := ctl.Occupancy()
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v %v %v %+v", runtime, valid, dirty, *ctl.Stats()))))
		t.Logf("%v: %s", d, got)
		if got != fp {
			t.Errorf("%v: replay fingerprint %s, pinned %s", d, got, fp)
		}
	}
}

func TestPlayerEmptyTrace(t *testing.T) {
	s, ctl := newCtl(t, dramcache.TDRAM)
	p := NewPlayer(s, ctl, nil)
	runtime, err := p.Run()
	if err != nil || runtime != 0 {
		t.Errorf("empty replay: %v, %v", runtime, err)
	}
}

func TestRecordThenReplayRoundTrip(t *testing.T) {
	// Record a short run, replay the captured trace, and check the
	// demand counts survive the round trip.
	s, ctl := newCtl(t, dramcache.CascadeLake)
	var buf bytes.Buffer
	rec := NewRecorder(ctl, &buf)
	done := 0
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		kind := mem.Read
		var onDone func(*mem.Request)
		if rng.Intn(100) < 30 {
			kind = mem.Write
		} else {
			onDone = func(*mem.Request) { done++ }
		}
		req := &mem.Request{ID: uint64(i), Addr: uint64(rng.Intn(30000)) * 64, Kind: kind, OnDone: onDone}
		for !ctl.Enqueue(req) {
			s.Step()
		}
		s.Run(s.Now() + sim.NS(20))
	}
	s.Run(0)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 200 {
		t.Fatalf("captured %d events", len(events))
	}
	s2, ctl2 := newCtl(t, dramcache.TDRAM)
	if _, err := NewPlayer(s2, ctl2, events).Run(); err != nil {
		t.Fatal(err)
	}
	st := ctl2.Stats()
	if st.DemandReads+st.DemandWrites != 200 {
		t.Errorf("replayed demands = %d", st.DemandReads+st.DemandWrites)
	}
}
