package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"tdram/internal/dramcache"
	"tdram/internal/fault"
	"tdram/internal/system"
)

// TestMatrixForkVsReplayBitIdentical pins the shared-warmup fork's
// acceptance criterion: every (design, workload) cell run from its image
// key's shared WarmupImage must be bit-identical — the full Result
// struct, every counter and histogram — to system.Run of the same
// config, which replays the warmup into an image of its own. Study cells
// that leave the matrix config — other associativities, fault
// injection, flush-buffer sizes, journey attribution — fork too, from
// their image key's image, and match the same way. Under -short or the
// race detector the matrix is trimmed so the package fits the 1-CPU race
// budget; the full band-balanced subset runs in every regular pass.
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

	m, err := RunMatrixOpts(sc, MatrixOptions{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	var cells []system.Config
	var forked []*system.Result
	for _, c := range sweepCells(sc) {
		cells = append(cells, sc.Config(c.d, c.wl))
		forked = append(forked, m.Results[Key{c.d, c.wl.Name}])
	}

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
	var outs outcomes
	keep := func(o outcomes) *Report { outs = o; return &Report{} }
	if _, _, err := sc.run(false, []study{{extra, keep}}, MatrixOptions{Jobs: jobs}); err != nil {
		t.Fatalf("study cells: %v", err)
	}
	for _, o := range outs {
		forked = append(forked, o.res)
	}
	cells = append(cells, extra...)

	for i, cfg := range cells {
		want, err := system.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := forked[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d (%s/%v): forked result differs from system.Run:\nfork %+v\nrun  %+v",
				i, cfg.Workload.Name, cfg.Cache.Design, got, want)
		} else if gs, ws := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); gs != ws {
			t.Errorf("cell %d (%s/%v): result fingerprints differ", i, cfg.Workload.Name, cfg.Cache.Design)
		}
	}
}
