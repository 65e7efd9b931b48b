package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestMatrixForkVsReplayBitIdentical pins the shared-warmup fork's
// acceptance criterion: every (design, workload) cell run from the
// per-workload WarmupImage must be bit-identical — the full Result
// struct, every counter and histogram — to the same cell replaying the
// warmup into an image of its own, and the progress stream must say
// which path each cell took. Under -short or the race detector the
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
