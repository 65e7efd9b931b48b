package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"tdram/internal/sim"
)

// LogHist is a log-linear histogram over non-negative tick values: each
// octave is split into 2^logHistSubBits linear sub-buckets, so the
// relative quantization error is bounded by 2^-logHistSubBits (< 1.6 %,
// < 0.8 % to the bucket midpoint) at every magnitude from picoseconds to
// milliseconds. Values below one full octave (< 2^logHistSubBits ticks)
// get exact one-tick buckets. There is no overflow bucket to swallow the
// tail: any tick value maps to a real bucket, so tail percentiles (p99,
// p99.9) stay resolved no matter how slow the slowest request was.
//
// The counts slice grows lazily to the highest bucket touched, additions
// are O(1) with no floating-point involved, and two histograms merge
// bucket-by-bucket, so per-(design, class) histograms can be built
// per-run and combined afterwards without losing resolution.
type LogHist struct {
	counts   []uint64
	n        uint64
	sum      uint64 // total ticks, for the mean
	min, max uint64 // extreme samples, in ticks
}

// logHistSubBits sets the sub-buckets per octave (64), hence the ~1 %
// relative error the latency tables quote.
const logHistSubBits = 6
const logHistSub = 1 << logHistSubBits

// NewLogHist returns an empty histogram.
func NewLogHist() *LogHist { return &LogHist{} }

// logBucket maps a sample to its bucket index.
func logBucket(v uint64) int {
	if v < logHistSub {
		return int(v)
	}
	exp := bits.Len64(v) - logHistSubBits - 1
	return (exp+1)*logHistSub + int(v>>exp) - logHistSub
}

// logBucketBounds reports bucket i's half-open value range [lo, hi).
func logBucketBounds(i int) (lo, hi uint64) {
	if i < logHistSub {
		return uint64(i), uint64(i) + 1
	}
	exp := uint(i/logHistSub - 1)
	lo = (uint64(i%logHistSub) + logHistSub) << exp
	return lo, lo + 1<<exp
}

// Add records one sample (in ticks).
func (h *LogHist) Add(v uint64) {
	i := logBucket(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// AddTick records a tick-valued sample; negative durations clamp to zero
// (they indicate a measurement taken at the same event boundary).
func (h *LogHist) AddTick(t sim.Tick) {
	if t < 0 {
		t = 0
	}
	h.Add(uint64(t))
}

// N reports the sample count.
func (h *LogHist) N() uint64 { return h.n }

// Max reports the largest sample (0 when empty).
func (h *LogHist) Max() sim.Tick { return sim.Tick(h.max) }

// Min reports the smallest sample (0 when empty).
func (h *LogHist) Min() sim.Tick { return sim.Tick(h.min) }

// Mean reports the sample mean in ticks (0 when empty).
func (h *LogHist) Mean() sim.Tick {
	if h.n == 0 {
		return 0
	}
	return sim.Tick(h.sum / h.n)
}

// MeanNS reports the sample mean in nanoseconds.
func (h *LogHist) MeanNS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / float64(sim.Nanosecond)
}

// Percentile reports the value below or at which frac of the samples
// fall. frac must be in (0, 1]; an empty histogram reports 0. Because
// every sample lands in a real bucket, tail percentiles are resolved to
// the bucket's ~1 % width — never saturated at an overflow boundary.
//
// For the exact one-tick sub-octave buckets the answer is the sample
// value itself (the bucket's inclusive bound hi-1, not its exclusive
// upper bound — a histogram of all-100-tick samples reports p99 = 100,
// not 101). Wider buckets report their exclusive upper bound, clamped
// to the largest recorded sample so no percentile ever exceeds Max().
func (h *LogHist) Percentile(frac float64) sim.Tick {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(frac * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			_, hi := logBucketBounds(i)
			if i < logHistSub {
				hi-- // exact bucket: [v, v+1) holds only v
			}
			if hi > h.max {
				hi = h.max
			}
			return sim.Tick(hi)
		}
	}
	return sim.Tick(h.max) // unreachable: counts always sum to n
}

// PercentileNS is Percentile in nanoseconds.
func (h *LogHist) PercentileNS(frac float64) float64 {
	return h.Percentile(frac).Nanoseconds()
}

// Merge adds every sample of o into h.
func (h *LogHist) Merge(o *LogHist) {
	if o == nil || o.n == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Each calls fn for every non-empty bucket in ascending value order with
// the bucket's tick range and count — the CDF/CCDF export primitive.
func (h *LogHist) Each(fn func(lo, hi sim.Tick, count uint64)) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := logBucketBounds(i)
		fn(sim.Tick(lo), sim.Tick(hi), c)
	}
}

// String renders the histogram's full content with a sparse bucket list.
// This is what keeps a reflected stats dump (fmt %+v) deterministic: a
// nested *LogHist renders its values, not its address.
func (h *LogHist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loghist{n=%d sum=%d min=%d max=%d b=[", h.n, h.sum, h.min, h.max)
	first := true
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", i, c)
	}
	b.WriteString("]}")
	return b.String()
}
