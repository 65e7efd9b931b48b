package experiments

import (
	"strings"
	"testing"

	"tdram/internal/workload"
)

// tinyScale keeps the standalone-study tests fast.
func tinyScale(t *testing.T) Scale {
	t.Helper()
	var wls []workload.Spec
	for _, n := range []string{"lu.C", "is.D", "bt.C", "pr.25"} {
		wl, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, wl)
	}
	return Scale{
		Name:            "tiny",
		CacheBytes:      8 << 20,
		RequestsPerCore: 1200,
		WarmupPerCore:   200,
		Workloads:       wls,
	}
}

// runStudy regenerates one study through Reproduce, the one sweep path.
func runStudy(t *testing.T, sc Scale, id string) *Report {
	t.Helper()
	reps, _, err := Reproduce(sc, []string{id}, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return reps[0]
}

func TestStudySubsetBalanced(t *testing.T) {
	sc := tinyScale(t)
	sub := sc.studySubset(2)
	if len(sub) != 2 {
		t.Fatalf("subset size = %d", len(sub))
	}
	if sub[0].Band == sub[1].Band {
		t.Error("subset of 2 not band-balanced")
	}
	all := sc.studySubset(100)
	if len(all) != len(sc.Workloads) {
		t.Errorf("oversized subset = %d", len(all))
	}
}

func TestSecVD(t *testing.T) {
	rep := runStudy(t, tinyScale(t), "predictor")
	s := rep.String()
	if !strings.Contains(s, "map-i") {
		t.Errorf("report:\n%s", s)
	}
	if len(rep.Summary) == 0 {
		t.Error("no summary")
	}
}

func TestSecVE(t *testing.T) {
	rep := runStudy(t, tinyScale(t), "flushbuf")
	if !strings.Contains(rep.String(), "16") {
		t.Error("size sweep missing 16-entry row")
	}
}

func TestSecVF(t *testing.T) {
	rep := runStudy(t, tinyScale(t), "setassoc")
	s := rep.String()
	for _, w := range []string{" 1 ", " 16 "} {
		if !strings.Contains(s, w) {
			t.Errorf("ways sweep missing %q:\n%s", w, s)
		}
	}
}

func TestAblations(t *testing.T) {
	sc := tinyScale(t)
	for _, id := range []string{"abl-probing", "abl-probe-policy", "abl-flush", "abl-condcol"} {
		rep := runStudy(t, sc, id)
		if len(rep.String()) < 60 {
			t.Errorf("%s: report too thin", rep.ID)
		}
	}
}

func TestAblationProbingHelps(t *testing.T) {
	// On a high-miss-only subset, probing must improve tag-check latency.
	sc := tinyScale(t)
	var high []workload.Spec
	for _, wl := range sc.Workloads {
		if wl.Band == workload.HighMiss {
			high = append(high, wl)
		}
	}
	sc.Workloads = high
	rep := runStudy(t, sc, "abl-probing")
	if !strings.Contains(rep.Summary[0], "probing improves") {
		t.Fatalf("summary: %v", rep.Summary)
	}
	// Extract the geomean: must be > 1.0 (the string has "%.2fx").
	if strings.Contains(rep.Summary[0], "geomean 0.") {
		t.Errorf("probing did not help: %s", rep.Summary[0])
	}
}
