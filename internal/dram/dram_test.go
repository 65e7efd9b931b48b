package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tdram/internal/sim"
)

func cacheParams() Params { return CacheDeviceParams(64 << 20) }

func TestParamsValidate(t *testing.T) {
	p := cacheParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	d := DDR5Params()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cacheParams()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Error("zero channels validated")
	}
	incomplete := cacheParams()
	incomplete.THM = 0
	if incomplete.Validate() == nil {
		t.Error("tag banks without tHM validated")
	}
}

func TestTableIIIValues(t *testing.T) {
	// The paper's published relationships must hold in our encoded
	// parameters (§III-C4).
	p := cacheParams()
	if got := p.TagInternalOffset(); got != sim.NS(10) {
		t.Errorf("tRCD_TAG+tHM_int = %v, want 10ns", got)
	}
	if got := p.HMOffset(); got != sim.NS(15) {
		t.Errorf("tRCD_TAG+tHM = %v, want 15ns", got)
	}
	if p.TagInternalOffset() >= p.TRCD {
		t.Error("tag access not hidden behind tRCD: internal HM must precede column-op point")
	}
	if !p.HasTagBanks() {
		t.Error("cache device must have tag banks")
	}
	ddr5 := DDR5Params()
	if ddr5.HasTagBanks() {
		t.Error("DDR5 must not have tag banks")
	}
}

func TestParamsCapacity(t *testing.T) {
	p := CacheDeviceParams(64 << 20)
	if got := p.AddrMap().Bytes(); got != 64<<20 {
		t.Errorf("capacity = %d, want %d", got, 64<<20)
	}
	tiny := CacheDeviceParams(1) // under one row-slice: clamps to 1 row
	if tiny.Rows != 1 {
		t.Errorf("tiny rows = %d", tiny.Rows)
	}
}

func TestBankOccupancies(t *testing.T) {
	p := cacheParams()
	if got := p.ReadBankBusy(); got != sim.NS(42) {
		t.Errorf("read bank busy = %v, want tRAS+tRP = 42ns", got)
	}
	// write: max(tRAS=28, 6+7+2+14=29) + 14 = 43
	if got := p.WriteBankBusy(); got != sim.NS(43) {
		t.Errorf("write bank busy = %v, want 43ns", got)
	}
	if got := p.ReadDataOffset(); got != sim.NS(30) {
		t.Errorf("read data offset = %v, want tRCD+tCL = 30ns", got)
	}
	if got := p.WriteDataOffset(); got != sim.NS(13) {
		t.Errorf("write data offset = %v, want tRCD_WR+tCWL = 13ns", got)
	}
}

func newTestChannel(t *testing.T) (*sim.Simulator, *Channel) {
	t.Helper()
	s := sim.New()
	p := cacheParams()
	p.TREFI = 0 // disable refresh unless a test wants it
	return s, NewChannel(s, &p, 0)
}

func TestChannelReadTiming(t *testing.T) {
	s, c := newTestChannel(t)
	at := c.Earliest(Op{Kind: OpRead, Bank: 0}, s.Now())
	if at != 0 {
		t.Fatalf("first read earliest = %v, want 0", at)
	}
	iss := c.Commit(Op{Kind: OpRead, Bank: 0}, at)
	if iss.DataStart != sim.NS(30) || iss.DataEnd != sim.NS(32) {
		t.Errorf("data window = [%v, %v), want [30ns, 32ns)", iss.DataStart, iss.DataEnd)
	}
	if iss.BankFree != sim.NS(42) {
		t.Errorf("bank free = %v, want 42ns", iss.BankFree)
	}
	if iss.HMAt != 0 {
		t.Errorf("plain read got HM time %v", iss.HMAt)
	}
}

func TestChannelActRdTiming(t *testing.T) {
	s, c := newTestChannel(t)
	iss := c.Commit(Op{Kind: OpRead, Bank: 3, Tag: true}, c.Earliest(Op{Kind: OpRead, Bank: 3, Tag: true}, s.Now()))
	if iss.TagInt != sim.NS(10) {
		t.Errorf("internal tag result = %v, want 10ns", iss.TagInt)
	}
	if iss.HMAt != sim.NS(15) {
		t.Errorf("HM at controller = %v, want 15ns", iss.HMAt)
	}
	if iss.DataStart != sim.NS(30) {
		t.Errorf("data start = %v, want 30ns", iss.DataStart)
	}
	st := c.Stats()
	if st.Activates != 1 || st.TagActivates != 1 || st.HMTransfers != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChannelSameBankSerialized(t *testing.T) {
	s, c := newTestChannel(t)
	c.Commit(Op{Kind: OpRead, Bank: 0}, 0)
	got := c.Earliest(Op{Kind: OpRead, Bank: 0}, s.Now())
	if got != sim.NS(42) {
		t.Errorf("same-bank second read = %v, want 42ns (tRAS+tRP)", got)
	}
}

func TestChannelOtherBankPipelines(t *testing.T) {
	s, c := newTestChannel(t)
	c.Commit(Op{Kind: OpRead, Bank: 0}, 0)
	got := c.Earliest(Op{Kind: OpRead, Bank: 1}, s.Now())
	// Limited by tRRD (2ns): DQ next free is 32ns but data offset puts it
	// at 2+30 = 32ns exactly.
	if got != sim.NS(2) {
		t.Errorf("other-bank read = %v, want 2ns (tRRD then DQ pipelining)", got)
	}
}

func TestChannelDQSerializesStreams(t *testing.T) {
	// Back-to-back reads to different banks are limited by DQ slots.
	s, c := newTestChannel(t)
	var last Issue
	for i := 0; i < 8; i++ {
		op := Op{Kind: OpRead, Bank: i}
		at := c.Earliest(op, s.Now())
		last = c.Commit(op, at)
	}
	// 8 transfers of 2ns each must be contiguous at steady state:
	// first data at 30ns; but tRRD (2ns) paces ACTs at exactly the burst
	// rate, so final data ends at 30 + 8*2 = 46ns.
	if last.DataEnd != sim.NS(46) {
		t.Errorf("8th read data end = %v, want 46ns", last.DataEnd)
	}
}

func TestChannelFAW(t *testing.T) {
	s := sim.New()
	p := cacheParams()
	p.TREFI = 0
	p.TRRD = sim.NS(1) // make tFAW the binding constraint
	c := NewChannel(s, &p, 0)
	var times []sim.Tick
	for i := 0; i < 9; i++ {
		op := Op{Kind: OpRead, Bank: i}
		at := c.Earliest(op, 0)
		c.Commit(op, at)
		times = append(times, at)
	}
	// tXAW is modeled as an eight-activate window: the 9th ACT must wait.
	if times[8]-times[0] < p.TFAW {
		t.Errorf("9th ACT at %v, 1st at %v: violates tXAW %v", times[8], times[0], p.TFAW)
	}
}

func TestChannelWriteReadTurnaround(t *testing.T) {
	s, c := newTestChannel(t)
	w := c.Commit(Op{Kind: OpWrite, Bank: 0}, 0)
	if w.DataStart != sim.NS(13) {
		t.Fatalf("write data start = %v", w.DataStart)
	}
	// A read to another bank: its data must wait for write data end + tWTR.
	rOp := Op{Kind: OpRead, Bank: 1}
	at := c.Earliest(rOp, s.Now())
	r := c.Commit(rOp, at)
	if r.DataStart < w.DataEnd+sim.NS(3) {
		t.Errorf("read data at %v too close to write end %v", r.DataStart, w.DataEnd)
	}
}

func TestChannelProbe(t *testing.T) {
	s, c := newTestChannel(t)
	iss := c.Commit(Op{Kind: OpProbe, Bank: 2}, c.Earliest(Op{Kind: OpProbe, Bank: 2}, s.Now()))
	if iss.HMAt != sim.NS(15) {
		t.Errorf("probe HM = %v, want 15ns", iss.HMAt)
	}
	if iss.DataStart != 0 || iss.BankFree != 0 {
		t.Errorf("probe reserved data resources: %+v", iss)
	}
	// Probe occupies the tag bank for tRC_TAG; a following ActRd to the
	// same bank must wait for it, but the data bank is untouched.
	got := c.Earliest(Op{Kind: OpRead, Bank: 2, Tag: true}, s.Now())
	if got != sim.NS(12) {
		t.Errorf("ActRd after probe same bank = %v, want 12ns (tRC_TAG)", got)
	}
	// Only the CA slot (tCMD = 0.5 ns) delays a plain read to another bank.
	if got := c.Earliest(Op{Kind: OpRead, Bank: 5}, s.Now()); got != sim.NS(0.5) {
		t.Errorf("plain read other bank after probe = %v, want 0.5ns", got)
	}
}

func TestChannelProbeOnPlainDevicePanics(t *testing.T) {
	s := sim.New()
	p := DDR5Params()
	c := NewChannel(s, &p, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("probe on DDR5 did not panic")
		}
	}()
	c.Earliest(Op{Kind: OpProbe, Bank: 0}, 0)
}

func TestChannelStreamRead(t *testing.T) {
	s, c := newTestChannel(t)
	iss := c.Commit(Op{Kind: OpStreamRead}, c.Earliest(Op{Kind: OpStreamRead}, s.Now()))
	if iss.DataStart != 0 || iss.DataEnd != sim.NS(2) {
		t.Errorf("stream data window [%v, %v)", iss.DataStart, iss.DataEnd)
	}
	if iss.BankFree != 0 {
		t.Error("stream read touched a bank")
	}
}

func TestChannelCommitInfeasiblePanics(t *testing.T) {
	_, c := newTestChannel(t)
	c.Commit(Op{Kind: OpRead, Bank: 0}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible commit did not panic")
		}
	}()
	c.Commit(Op{Kind: OpRead, Bank: 0}, sim.NS(1))
}

func TestChannelRefresh(t *testing.T) {
	s := sim.New()
	p := cacheParams()
	c := NewChannel(s, &p, 0)
	var windows int
	c.OnRefresh = func(start, end sim.Tick) {
		windows++
		if end-start != p.TRFC {
			t.Errorf("refresh window %v", end-start)
		}
	}
	s.Run(sim.NS(3900 * 4.5))
	if windows != 4 {
		t.Errorf("refresh windows in 4.5 tREFI = %d, want 4", windows)
	}
	if c.Stats().Refreshes != 4 {
		t.Errorf("refresh count = %d", c.Stats().Refreshes)
	}
	// A read right after a refresh must wait out tRFC.
	got := c.Earliest(Op{Kind: OpRead, Bank: 0}, sim.NS(3900))
	if got < sim.NS(3900)+p.TRFC {
		t.Errorf("read during refresh at %v", got)
	}
}

func TestAlloyBurst(t *testing.T) {
	// Alloy's 80 B access stretches the DQ occupancy to 2.5 ns.
	s, c := newTestChannel(t)
	op := Op{Kind: OpRead, Bank: 0, Burst: sim.NS(2.5)}
	iss := c.Commit(op, c.Earliest(op, s.Now()))
	if iss.DataEnd-iss.DataStart != sim.NS(2.5) {
		t.Errorf("burst = %v", iss.DataEnd-iss.DataStart)
	}
}

func TestDevice(t *testing.T) {
	s := sim.New()
	d, err := NewDevice(s, cacheParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.Channels() != 8 {
		t.Fatalf("channels = %d", d.Channels())
	}
	ch0, bank0 := d.Route(0)
	ch1, _ := d.Route(1)
	if ch0 == ch1 {
		t.Error("consecutive lines mapped to same channel")
	}
	_, bank8 := d.Route(8)
	if bank0 == bank8 {
		t.Error("lines a channel-stride apart mapped to same bank")
	}
	bad := cacheParams()
	bad.Banks = 0
	if _, err := NewDevice(s, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

// Property: Earliest is idempotent — committing at the returned time
// always succeeds, across random op sequences.
func TestEarliestCommitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		p := cacheParams()
		c := NewChannel(s, &p, 0)
		now := sim.Tick(0)
		for i := 0; i < 200; i++ {
			var op Op
			switch rng.Intn(4) {
			case 0:
				op = Op{Kind: OpRead, Bank: rng.Intn(p.Banks), Tag: rng.Intn(2) == 0}
			case 1:
				op = Op{Kind: OpWrite, Bank: rng.Intn(p.Banks), Tag: rng.Intn(2) == 0}
			case 2:
				op = Op{Kind: OpProbe, Bank: rng.Intn(p.Banks)}
			case 3:
				op = Op{Kind: OpStreamRead}
			}
			at := c.Earliest(op, now)
			if at < now {
				return false
			}
			c.Commit(op, at) // panics on failure
			now = at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkChannelReadStream(b *testing.B) {
	s := sim.New()
	p := cacheParams()
	p.TREFI = 0
	c := NewChannel(s, &p, 0)
	now := sim.Tick(0)
	for i := 0; i < b.N; i++ {
		op := Op{Kind: OpRead, Bank: i % p.Banks, Tag: true}
		at := c.Earliest(op, now)
		c.Commit(op, at)
		now = at
	}
}
