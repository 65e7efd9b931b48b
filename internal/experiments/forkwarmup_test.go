package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tdram/internal/dramcache"
	"tdram/internal/fault"
	"tdram/internal/system"
)

// TestMatrixForkVsReplayBitIdentical pins the shared-warmup fork's
// acceptance criterion: every (design, workload) cell run from the
// per-workload WarmupImage must be bit-identical — the full Result
// struct, every counter and histogram — to the same cell replaying the
// warmup into an image of its own, and the progress stream must say
// which path each cell took. Study cells that leave the matrix config —
// other associativities, fault injection, flush-buffer sizes, journey
// attribution — fork too, from their image key's image, and match
// system.Run of the same config. Under -short or the race detector the
// matrix is trimmed so the package fits the 1-CPU race budget; the full
// band-balanced subset runs in every regular pass.
func TestMatrixForkVsReplayBitIdentical(t *testing.T) {
	sc := Quick()
	jobs := 8
	if testing.Short() || raceEnabled {
		sc.Workloads = sc.studySubset(2)
		sc.RequestsPerCore = 1000
		sc.WarmupPerCore = 200
		jobs = 2
	} else {
		sc.Workloads = sc.studySubset(6)
	}

	run := func(what string) (*Matrix, []string) {
		var lines []string
		m, err := RunMatrixOpts(sc, MatrixOptions{
			Jobs:     jobs,
			Progress: func(s string) { lines = append(lines, s) },
		})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return m, lines
	}
	forked, forkLines := run("fork")

	var extra []system.Config
	for _, wl := range sc.Workloads {
		ways := sc.Config(dramcache.TDRAM, wl)
		ways.Cache.Ways = 4
		faulty := sc.Config(dramcache.TDRAM, wl)
		faulty.Cache.Fault = fault.Config{Rate: 1e-3, Seed: 2}
		flush := sc.Config(dramcache.TDRAM, wl)
		flush.Cache.FlushEntries = 8
		journeys := sc.Config(dramcache.CascadeLake, wl)
		journeys.Obs.Journeys = true
		extra = append(extra, ways, faulty, flush, journeys)
	}
	var studyLines []string
	var outs outcomes
	keep := func(o outcomes) *Report { outs = o; return &Report{} }
	_, _, err := sc.run(false, []study{{extra, keep}}, MatrixOptions{
		Jobs:     jobs,
		Progress: func(s string) { studyLines = append(studyLines, s) },
	})
	if err != nil {
		t.Fatalf("study cells: %v", err)
	}
	for i, cfg := range extra {
		want, err := system.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := outs[i].res; !reflect.DeepEqual(got, want) {
			t.Errorf("study cell %d (%s/%v): forked result differs from system.Run:\nfork %+v\nrun  %+v",
				i, cfg.Workload.Name, cfg.Cache.Design, got, want)
		}
	}
	if len(studyLines) != len(extra) {
		t.Errorf("study progress lines = %d, want %d", len(studyLines), len(extra))
	}
	for i, line := range studyLines {
		if !strings.HasSuffix(line, "warmup=fork") {
			t.Errorf("study line %d missing warmup=fork: %q", i, line)
		}
	}

	withoutSharedImages(t)
	replayed, replayLines := run("replay")

	if len(forked.Results) != len(replayed.Results) {
		t.Fatalf("cell count: forked %d, replayed %d", len(forked.Results), len(replayed.Results))
	}
	for k, rr := range replayed.Results {
		fr := forked.Results[k]
		if fr == nil {
			t.Fatalf("%s/%v: missing from forked matrix", k.Workload, k.Design)
		}
		if !reflect.DeepEqual(rr, fr) {
			t.Errorf("%s/%v: forked and replayed results differ:\nreplay %+v\nfork   %+v",
				k.Workload, k.Design, rr, fr)
		}
		if rs, fs := fmt.Sprintf("%+v", rr), fmt.Sprintf("%+v", fr); rs != fs {
			t.Errorf("%s/%v: result fingerprints differ", k.Workload, k.Design)
		}
	}

	// Every cell's progress line must name its warmup path; in the stock
	// matrix every design shares the image, so all cells fork.
	for i, line := range forkLines {
		if !strings.HasSuffix(line, "warmup=fork") {
			t.Errorf("fork-mode line %d missing warmup=fork: %q", i, line)
		}
	}
	for i, line := range replayLines {
		if !strings.HasSuffix(line, "warmup=replay") {
			t.Errorf("replay-mode line %d missing warmup=replay: %q", i, line)
		}
	}
}
