package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tdram/internal/sim"
)

// Every sample must land in a bucket whose bounds contain it, and the
// bucket's relative width must stay within the advertised ~1.6 % (1/64).
func TestLogHistBucketBounds(t *testing.T) {
	vals := []uint64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 27000, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	for _, v := range vals {
		i := logBucket(v)
		lo, hi := logBucketBounds(i)
		if v < lo || v >= hi {
			t.Errorf("value %d mapped to bucket %d with bounds [%d, %d)", v, i, lo, hi)
		}
		if v >= logHistSub {
			if rel := float64(hi-lo) / float64(lo); rel > 1.0/logHistSub+1e-12 {
				t.Errorf("value %d: bucket width %d at lo %d gives relative error %v", v, hi-lo, lo, rel)
			}
		}
	}
}

func TestLogHistBucketRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v >>= 1 // keep within int64 so bucket indexes stay in range
		i := logBucket(v)
		lo, hi := logBucketBounds(i)
		return lo <= v && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLogHistPercentile(t *testing.T) {
	h := NewLogHist()
	if h.Percentile(0.5) != 0 || h.N() != 0 {
		t.Error("empty histogram not zero")
	}
	// 1..1000 ticks: p50 ≈ 500, p99 ≈ 990 within 1/64 relative error.
	for v := uint64(1); v <= 1000; v++ {
		h.Add(v)
	}
	cases := []struct {
		frac float64
		want float64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}, {1.0, 1000}}
	for _, c := range cases {
		got := float64(h.Percentile(c.frac))
		if math.Abs(got-c.want)/c.want > 2.0/logHistSub {
			t.Errorf("p%g = %v, want ~%v", c.frac*100, got, c.want)
		}
	}
	if h.Max() != 1000 || h.Min() != 1 {
		t.Errorf("extrema: min=%v max=%v", h.Min(), h.Max())
	}
	if mean := float64(h.Mean()); math.Abs(mean-500.5) > 1 {
		t.Errorf("mean = %v", mean)
	}
}

// The exact-bucket off-by-one fix: sub-octave buckets hold exactly one
// tick value, so percentiles there must report the value itself, not the
// bucket's exclusive upper bound; and no percentile may exceed Max().
func TestLogHistPercentileExactBuckets(t *testing.T) {
	cases := []struct {
		name    string
		samples []uint64
		frac    float64
		want    sim.Tick
	}{
		{"all-100 p99", repeatVal(100, 1000), 0.99, 100},
		{"all-100 p100", repeatVal(100, 1000), 1.0, 100},
		{"all-zero p50", repeatVal(0, 10), 0.50, 0},
		{"single-1 p100", []uint64{1}, 1.0, 1},
		{"exact-boundary 63", repeatVal(63, 5), 0.5, 63},
		{"mixed exact bucket", []uint64{7, 7, 7, 1 << 20}, 0.5, 7},
		// One sample in a wide bucket: the exclusive upper bound clamps
		// to the sample (the histogram's max) instead of overshooting.
		{"wide bucket clamps to max", []uint64{1000}, 1.0, 1000},
		{"wide bucket tail clamps", append(repeatVal(10, 99), 100000), 1.0, 100000},
	}
	for _, c := range cases {
		h := NewLogHist()
		for _, v := range c.samples {
			h.Add(v)
		}
		if got := h.Percentile(c.frac); got != c.want {
			t.Errorf("%s: p%g = %v, want %v", c.name, c.frac*100, got, c.want)
		}
		if p := h.Percentile(1.0); p > h.Max() {
			t.Errorf("%s: p100 = %v exceeds max %v", c.name, p, h.Max())
		}
	}
}

func repeatVal(v uint64, n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// Percentiles must be monotone in frac even across octave boundaries.
func TestLogHistPercentileMonotone(t *testing.T) {
	h := NewLogHist()
	for v := uint64(1); v < 100000; v += 7 {
		h.Add(v)
	}
	prev := sim.Tick(-1)
	for frac := 0.01; frac <= 1.0; frac += 0.01 {
		p := h.Percentile(frac)
		if p < prev {
			t.Fatalf("percentile not monotone: p(%v) = %v < %v", frac, p, prev)
		}
		prev = p
	}
}

// The tail must stay resolved: a millisecond outlier among nanosecond
// samples reports distinct p99 vs p100.
func TestLogHistTailResolved(t *testing.T) {
	h := NewLogHist()
	for i := 0; i < 999; i++ {
		h.AddTick(sim.NS(30))
	}
	h.AddTick(sim.Millisecond)
	p99 := h.PercentileNS(0.99)
	p100 := h.PercentileNS(1.0)
	if p99 > 35 {
		t.Errorf("p99 = %v ns, want ~30", p99)
	}
	if rel := math.Abs(p100-1e6) / 1e6; rel > 2.0/logHistSub {
		t.Errorf("p100 = %v ns, want ~1e6", p100)
	}
}

func TestLogHistAddTickClampsNegative(t *testing.T) {
	h := NewLogHist()
	h.AddTick(-5)
	if h.N() != 1 || h.Max() != 0 {
		t.Errorf("negative tick: n=%d max=%v", h.N(), h.Max())
	}
}

func TestLogHistMerge(t *testing.T) {
	a, b := NewLogHist(), NewLogHist()
	for v := uint64(1); v <= 100; v++ {
		a.Add(v)
	}
	for v := uint64(1000); v <= 2000; v += 10 {
		b.Add(v)
	}
	whole := NewLogHist()
	whole.Merge(a)
	whole.Merge(b)
	whole.Merge(nil)          // nil-safe
	whole.Merge(NewLogHist()) // empty-safe
	if whole.N() != a.N()+b.N() {
		t.Fatalf("merged N = %d", whole.N())
	}
	if whole.Min() != 1 || whole.Max() != 2000 {
		t.Errorf("merged extrema: min=%v max=%v", whole.Min(), whole.Max())
	}
	// Merging must be exact: same buckets as adding every sample directly.
	direct := NewLogHist()
	for v := uint64(1); v <= 100; v++ {
		direct.Add(v)
	}
	for v := uint64(1000); v <= 2000; v += 10 {
		direct.Add(v)
	}
	if whole.String() != direct.String() {
		t.Errorf("merge differs from direct:\n%s\n%s", whole, direct)
	}
}

// testSplitMix is a tiny local PRNG so the property test is seeded and
// deterministic (no global math/rand).
type testSplitMix uint64

func (s *testSplitMix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Property test against a sorted-slice oracle: for random sample sets —
// added directly or split across two histograms and merged — every
// percentile must bracket the oracle's order statistic from above,
// within one bucket width, exactly for sub-octave values, and never
// above the recorded max.
func TestLogHistPercentilePropertyOracle(t *testing.T) {
	rng := testSplitMix(0x1234)
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		n := 1 + int(rng.next()%400)
		samples := make([]uint64, n)
		a, b, merged := NewLogHist(), NewLogHist(), NewLogHist()
		for i := range samples {
			// Mix magnitudes: exact-bucket ticks, mid-range, and huge.
			v := rng.next()
			switch v % 3 {
			case 0:
				v = v % logHistSub
			case 1:
				v = v % 100000
			default:
				v = v % (1 << 40)
			}
			samples[i] = v
			if i%2 == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		merged.Merge(a)
		merged.Merge(b)
		sorted := append([]uint64(nil), samples...)
		slices.Sort(sorted)
		for _, frac := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1.0} {
			rank := int(math.Ceil(frac*float64(n))) - 1
			if rank < 0 {
				rank = 0
			}
			oracle := sorted[rank]
			got := uint64(merged.Percentile(frac))
			if got < oracle {
				t.Fatalf("round %d: p%g = %d below oracle %d", round, frac*100, got, oracle)
			}
			if got > sorted[n-1] {
				t.Fatalf("round %d: p%g = %d above max sample %d", round, frac*100, got, sorted[n-1])
			}
			if oracle < logHistSub {
				if got != oracle {
					t.Fatalf("round %d: exact bucket p%g = %d, oracle %d", round, frac*100, got, oracle)
				}
			} else if width := oracle / logHistSub; got > oracle+width+1 {
				t.Fatalf("round %d: p%g = %d overshoots oracle %d by more than a bucket", round, frac*100, got, oracle)
			}
		}
		if uint64(merged.Max()) != sorted[n-1] || uint64(merged.Min()) != sorted[0] {
			t.Fatalf("round %d: extrema %v/%v vs oracle %d/%d", round, merged.Min(), merged.Max(), sorted[0], sorted[n-1])
		}
	}
}

func TestLogHistEach(t *testing.T) {
	h := NewLogHist()
	h.Add(3)
	h.Add(3)
	h.Add(200)
	var total uint64
	var last sim.Tick = -1
	h.Each(func(lo, hi sim.Tick, count uint64) {
		if lo <= last {
			t.Errorf("buckets out of order: lo %v after %v", lo, last)
		}
		if hi <= lo {
			t.Errorf("degenerate bucket [%v, %v)", lo, hi)
		}
		last = lo
		total += count
	})
	if total != 3 {
		t.Errorf("Each visited %d samples, want 3", total)
	}
}

func TestLogHistString(t *testing.T) {
	h := NewLogHist()
	h.Add(2)
	h.Add(2)
	h.Add(70)
	s := h.String()
	if !strings.Contains(s, "n=3") || !strings.Contains(s, "2:2") {
		t.Errorf("String = %q", s)
	}
	if s != h.String() {
		t.Error("String not deterministic")
	}
}
