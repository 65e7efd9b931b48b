package experiments

import (
	"reflect"
	"strings"
	"testing"

	"tdram/internal/system"
)

// TestMatrixIncompatibleImageFallsBackToReplay pins the per-cell
// degradation contract of the shared-warmup fork: when one workload's
// image cannot seed its cells (here: built under a different stream
// seed, so CompatibleWith fails with ErrIncompatibleImage), exactly
// that workload falls back to replaying the warmup into per-cell images
// — without failing the sweep or touching any other workload's fork
// path — and every result is still bit-identical to an all-replay run.
func TestMatrixIncompatibleImageFallsBackToReplay(t *testing.T) {
	sc := Quick()
	sc.Workloads = sc.studySubset(2)
	sc.RequestsPerCore = 1000
	sc.WarmupPerCore = 200
	target := sc.Workloads[0].Name
	other := sc.Workloads[1].Name

	// Sabotage exactly one workload's image: building it under a
	// different seed makes every cell's CompatibleWith check fail.
	oldBuild := buildImage
	buildImage = func(cfg system.Config) (*system.WarmupImage, error) {
		if cfg.Workload.Name == target {
			cfg.Seed++
		}
		return oldBuild(cfg)
	}
	t.Cleanup(func() { buildImage = oldBuild })

	var lines []string
	m, err := RunMatrixOpts(sc, MatrixOptions{
		Jobs:     2,
		Progress: func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatalf("sweep with sabotaged image: %v", err)
	}

	// Each progress line names its warmup path: replay for every cell
	// of the sabotaged workload, fork for every other cell.
	sawReplay, sawFork := 0, 0
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, target):
			if !strings.HasSuffix(line, "warmup=replay") {
				t.Errorf("sabotaged workload cell did not replay: %q", line)
			}
			sawReplay++
		case strings.HasPrefix(line, other):
			if !strings.HasSuffix(line, "warmup=fork") {
				t.Errorf("healthy workload cell did not fork: %q", line)
			}
			sawFork++
		default:
			t.Errorf("progress line for unexpected workload: %q", line)
		}
	}
	designs := len(MatrixDesigns())
	if sawReplay != designs || sawFork != designs {
		t.Errorf("saw %d replay and %d fork lines, want %d each", sawReplay, sawFork, designs)
	}

	// The fallback is invisible in the results: bit-identical to a
	// sweep that replays every cell's warmup.
	withoutSharedImages(t)
	ref, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 2})
	if err != nil {
		t.Fatalf("reference replay sweep: %v", err)
	}
	if len(m.Results) != len(ref.Results) {
		t.Fatalf("cell count: sabotaged %d, reference %d", len(m.Results), len(ref.Results))
	}
	for k, want := range ref.Results {
		got := m.Results[k]
		if got == nil {
			t.Fatalf("%s/%v: missing from sabotaged matrix", k.Workload, k.Design)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%v: fallback result differs from replay:\nfallback %+v\nreplay   %+v",
				k.Workload, k.Design, got, want)
		}
	}
}
