package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tdram/internal/mem"
	"tdram/internal/sim"
)

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Error("empty mean nonzero")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		m.Add(v)
	}
	if m.Value() != 2.5 || m.N() != 4 || m.Sum() != 10 || m.Max() != 4 {
		t.Errorf("mean=%v n=%d sum=%v max=%v", m.Value(), m.N(), m.Sum(), m.Max())
	}
	m.AddTick(sim.NS(5))
	if m.Value() != 3 {
		t.Errorf("after AddTick mean=%v", m.Value())
	}
}

func TestMeanMinMax(t *testing.T) {
	var m Mean
	if m.Min() != 0 || m.Max() != 0 {
		t.Errorf("empty extrema: min=%v max=%v", m.Min(), m.Max())
	}
	// All-negative samples: the extrema must seed from the first sample,
	// not from zero.
	for _, v := range []float64{-3, -1, -7} {
		m.Add(v)
	}
	if m.Max() != -1 {
		t.Errorf("all-negative max = %v, want -1", m.Max())
	}
	if m.Min() != -7 {
		t.Errorf("all-negative min = %v, want -7", m.Min())
	}

	var p Mean
	for _, v := range []float64{5, 2, 9} {
		p.Add(v)
	}
	if p.Min() != 2 || p.Max() != 9 {
		t.Errorf("positive extrema: min=%v max=%v, want 2, 9", p.Min(), p.Max())
	}

	var one Mean
	one.Add(4.5)
	if one.Min() != 4.5 || one.Max() != 4.5 {
		t.Errorf("single-sample extrema: min=%v max=%v", one.Min(), one.Max())
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v", g)
	}
	if g := GeoMean([]float64{0, -1, 3}); math.Abs(g-3) > 1e-9 {
		t.Errorf("GeoMean ignoring nonpositive = %v", g)
	}
}

// Property: geomean of ratios a/b equals geomean(a)/geomean(b).
func TestGeoMeanRatioProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var a, b, r []float64
		for i := 0; i+1 < len(raw); i += 2 {
			x, y := float64(raw[i])+1, float64(raw[i+1])+1
			a = append(a, x)
			b = append(b, y)
			r = append(r, x/y)
		}
		want := GeoMean(a) / GeoMean(b)
		got := GeoMean(r)
		return math.Abs(got-want) < 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOutcomeCounts(t *testing.T) {
	var o OutcomeCounts
	o.Add(mem.ReadHit)
	o.Add(mem.ReadHit)
	o.Add(mem.ReadMissClean)
	o.Add(mem.ReadMissDirty)
	o.Add(mem.WriteHit)
	o.Add(mem.WriteMissClean)
	if o.Total() != 6 {
		t.Fatalf("Total=%d", o.Total())
	}
	if got := o.MissRatio(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MissRatio = %v", got)
	}
	if got := o.ReadMissRatio(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ReadMissRatio = %v", got)
	}
	fr := o.Fractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	if o.Count(mem.ReadHit) != 2 {
		t.Errorf("Count(ReadHit) = %d", o.Count(mem.ReadHit))
	}
}

func TestOutcomeCountsEmpty(t *testing.T) {
	var o OutcomeCounts
	if o.MissRatio() != 0 || o.ReadMissRatio() != 0 {
		t.Error("empty ratios nonzero")
	}
}

func TestTraffic(t *testing.T) {
	var tr Traffic
	if tr.BloatFactor() != 0 {
		t.Error("empty bloat nonzero")
	}
	tr.AddUseful(64)
	tr.AddUnuseful(64)
	if tr.BloatFactor() != 2 {
		t.Errorf("bloat = %v", tr.BloatFactor())
	}
	if tr.UnusefulFraction() != 0.5 {
		t.Errorf("unuseful fraction = %v", tr.UnusefulFraction())
	}
	if tr.Total() != 128 {
		t.Errorf("total = %d", tr.Total())
	}
}

// Property: bloat factor is always >= 1 when useful traffic exists.
func TestBloatAtLeastOne(t *testing.T) {
	f := func(useful, unuseful uint16) bool {
		tr := Traffic{UsefulBytes: uint64(useful) + 1, UnusefulBytes: uint64(unuseful)}
		return tr.BloatFactor() >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("design", "speedup")
	tb.AddRow("tdram", 1.23456)
	tb.AddRow("alloy", 0.9)
	s := tb.String()
	if !strings.Contains(s, "tdram") || !strings.Contains(s, "1.235") {
		t.Errorf("table output:\n%s", s)
	}
	if lines := strings.Count(s, "\n"); lines != 4 {
		t.Errorf("line count = %d:\n%s", lines, s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x", 1.5)
	tb.AddRow("y", 2.0)
	want := "a,b\nx,1.500\ny,2.000\n"
	if got := tb.CSV(); got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"c": 1, "a": 2, "b": 3}
	ks := SortedKeys(m)
	if len(ks) != 3 || ks[0] != "a" || ks[2] != "c" {
		t.Errorf("SortedKeys = %v", ks)
	}
}
