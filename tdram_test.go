package tdram_test

import (
	"strings"
	"testing"

	"tdram"
)

func TestPublicRoster(t *testing.T) {
	if got := len(tdram.Workloads()); got != 28 {
		t.Errorf("Workloads() = %d, want 28", got)
	}
	if got := len(tdram.Designs()); got != 6 {
		t.Errorf("Designs() = %d, want 6", got)
	}
	if _, err := tdram.WorkloadByName("ft.C"); err != nil {
		t.Error(err)
	}
	if _, err := tdram.WorkloadByName("bogus"); err == nil {
		t.Error("bogus workload resolved")
	}
	d, err := tdram.ParseDesign("tdram")
	if err != nil || d != tdram.TDRAM {
		t.Errorf("ParseDesign: %v %v", d, err)
	}
}

func TestMustWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustWorkload(bogus) did not panic")
		}
	}()
	tdram.MustWorkload("bogus")
}

func TestPublicRun(t *testing.T) {
	cfg := tdram.NewSystemConfig(tdram.TDRAM, tdram.MustWorkload("bt.C"), 8<<20)
	cfg.RequestsPerCore = 1500
	cfg.WarmupPerCore = 300
	res, err := tdram.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 || res.Cache.DemandReads == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.Cache.Outcomes.MissRatio() >= 0.30 {
		t.Errorf("bt.C miss ratio %.2f outside low band", res.Cache.Outcomes.MissRatio())
	}
}

func TestScales(t *testing.T) {
	q, f := tdram.QuickScale(), tdram.FullScale()
	if len(q.Workloads) >= len(f.Workloads) {
		t.Error("quick scale not smaller than full")
	}
	if len(f.Workloads) != 28 {
		t.Errorf("full scale workloads = %d", len(f.Workloads))
	}
	// Scale configs must validate for every design.
	for _, d := range tdram.Designs() {
		cfg := q.Config(d, q.Workloads[0])
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}

func TestTinyMatrixAndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	sc := tdram.Scale{
		Name:            "tiny",
		CacheBytes:      8 << 20,
		RequestsPerCore: 1200,
		WarmupPerCore:   200,
		Workloads:       []tdram.Workload{tdram.MustWorkload("lu.C"), tdram.MustWorkload("is.D")},
	}
	m, err := tdram.RunMatrixOpts(sc, tdram.MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reps := tdram.ReproduceFigures(m)
	if len(reps) != 9 {
		t.Fatalf("figure count = %d", len(reps))
	}
	for _, r := range reps {
		if !strings.Contains(r.String(), r.Title) {
			t.Errorf("%s: title missing from rendering", r.ID)
		}
	}
}
