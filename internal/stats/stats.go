// Package stats provides the measurement machinery shared by the
// simulator: running means, histograms, geometric means, per-outcome
// counters and table formatting.
package stats

import (
	"fmt"
	"math"
	"sort"

	"tdram/internal/mem"
	"tdram/internal/sim"
)

// Mean accumulates a running arithmetic mean without storing samples.
type Mean struct {
	n        uint64
	sum      float64
	min, max float64
}

// Add records one sample. The extrema seed from the first sample rather
// than zero, so they are correct for all-negative and all-positive
// sample sets alike.
func (m *Mean) Add(v float64) {
	if m.n == 0 || v > m.max {
		m.max = v
	}
	if m.n == 0 || v < m.min {
		m.min = v
	}
	m.n++
	m.sum += v
}

// AddTick records a tick-valued sample in nanoseconds.
func (m *Mean) AddTick(t sim.Tick) { m.Add(t.Nanoseconds()) }

// N reports the sample count.
func (m *Mean) N() uint64 { return m.n }

// Sum reports the total of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Max reports the largest sample seen (0 when empty).
func (m *Mean) Max() float64 { return m.max }

// Min reports the smallest sample seen (0 when empty).
func (m *Mean) Min() float64 { return m.min }

// Value reports the mean, or 0 when no samples were recorded.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// GeoMean returns the geometric mean of vs, ignoring non-positive,
// NaN and infinite values (degenerate ratios from empty measurements).
// It returns 0 for an empty input.
func GeoMean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if !(v > 0) || math.IsInf(v, 1) {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// OutcomeCounts tallies DRAM-cache accesses by Outcome (the paper's
// Fig. 1 breakdown).
type OutcomeCounts struct {
	counts [mem.NumOutcomes]uint64
}

// Add records one access outcome.
func (o *OutcomeCounts) Add(out mem.Outcome) { o.counts[out]++ }

// Count reports the tally for one outcome.
func (o *OutcomeCounts) Count(out mem.Outcome) uint64 { return o.counts[out] }

// Total reports all recorded accesses.
func (o *OutcomeCounts) Total() uint64 {
	var t uint64
	for _, c := range o.counts {
		t += c
	}
	return t
}

// MissRatio reports misses / total across reads and writes.
func (o *OutcomeCounts) MissRatio() float64 {
	t := o.Total()
	if t == 0 {
		return 0
	}
	miss := t - o.counts[mem.ReadHit] - o.counts[mem.WriteHit]
	return float64(miss) / float64(t)
}

// ReadMissRatio reports read misses / read demands.
func (o *OutcomeCounts) ReadMissRatio() float64 {
	reads := o.counts[mem.ReadHit] + o.counts[mem.ReadMissClean] + o.counts[mem.ReadMissDirty]
	if reads == 0 {
		return 0
	}
	return float64(o.counts[mem.ReadMissClean]+o.counts[mem.ReadMissDirty]) / float64(reads)
}

// Fractions reports each outcome's share of the total, in Outcome order.
func (o *OutcomeCounts) Fractions() [mem.NumOutcomes]float64 {
	var f [mem.NumOutcomes]float64
	t := o.Total()
	if t == 0 {
		return f
	}
	for i, c := range o.counts {
		f[i] = float64(c) / float64(t)
	}
	return f
}

// Table is a small fixed-column text table formatter used by the CLI and
// experiment harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += "  "
			}
			s += fmt.Sprintf("%-*s", widths[min(i, len(widths)-1)], c)
		}
		return s + "\n"
	}
	out += line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = repeat('-', widths[i])
	}
	out += line(sep)
	for _, r := range t.rows {
		out += line(r)
	}
	return out
}

// CSV renders the table as RFC-4180-ish CSV (no quoting needed: cells
// are numbers and identifiers).
func (t *Table) CSV() string {
	out := join(t.header) + "\n"
	for _, r := range t.rows {
		out += join(r) + "\n"
	}
	return out
}

func join(cells []string) string {
	s := ""
	for i, c := range cells {
		if i > 0 {
			s += ","
		}
		s += c
	}
	return s
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

// SortedKeys returns the sorted keys of a string-keyed map, for
// deterministic result iteration.
func SortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
