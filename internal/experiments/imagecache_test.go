package experiments

import (
	"reflect"
	"sync"
	"testing"

	"tdram/internal/system"
	"tdram/internal/workload"
)

// countBuilds wraps the warmup-image builder for the rest of the test
// and counts its calls per image key.
func countBuilds(t *testing.T, before func()) func(cfg system.Config) int {
	t.Helper()
	var mu sync.Mutex
	builds := map[system.ImageKey]int{}
	old := buildImage
	buildImage = func(cfg system.Config) (*system.WarmupImage, error) {
		mu.Lock()
		builds[cfg.ImageKey()]++
		mu.Unlock()
		if before != nil {
			before()
		}
		return old(cfg)
	}
	t.Cleanup(func() { buildImage = old })
	return func(cfg system.Config) int {
		mu.Lock()
		defer mu.Unlock()
		return builds[cfg.ImageKey()]
	}
}

// btScale is a one-workload sweep of seven cells at 1 MiB; scales that
// differ only in requests share its image key.
func btScale(t *testing.T, requests int) Scale {
	t.Helper()
	wl, err := workload.ByName("bt.C")
	if err != nil {
		t.Fatal(err)
	}
	return Scale{Name: "tiny", CacheBytes: 1 << 20, RequestsPerCore: requests, WarmupPerCore: 10,
		Workloads: []workload.Spec{wl}, Watchdog: defaultWatchdog}
}

// firstCell is the scale's first cell: its image key is the sweep's.
func firstCell(sc Scale) system.Config { return sc.Config(MatrixDesigns()[0], sc.Workloads[0]) }

// sweepOK runs sc and requires every cell to complete.
func sweepOK(t *testing.T, sc Scale, opts MatrixOptions) *Matrix {
	t.Helper()
	m, err := RunMatrixOpts(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestImageCacheBuildsEachKeyOnce: two sweeps that share an image key
// build its image once when they share an ImageCache, one after the
// other and at the same time, and their results equal uncached ones.
func TestImageCacheBuildsEachKeyOnce(t *testing.T) {
	a, b := btScale(t, 50), btScale(t, 60)
	refA := sweepOK(t, a, MatrixOptions{Jobs: 2})
	refB := sweepOK(t, b, MatrixOptions{Jobs: 2})
	same := func(got, want *Matrix) {
		t.Helper()
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Error("results with the image cache differ from results without it")
		}
	}

	t.Run("sequential", func(t *testing.T) {
		builds := countBuilds(t, nil)
		cache := NewImageCache(64 << 20)
		same(sweepOK(t, a, MatrixOptions{Jobs: 2, Images: cache}), refA)
		same(sweepOK(t, b, MatrixOptions{Jobs: 2, Images: cache}), refB)
		if n := builds(firstCell(a)); n != 1 {
			t.Errorf("two sweeps built the shared image %d times, want 1", n)
		}
		if cache.Len() != 1 || cache.Bytes() <= 0 {
			t.Errorf("cache holds %d images, %d bytes; want the one image", cache.Len(), cache.Bytes())
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// The build waits until both sweeps have started, so the second
		// asks for the image while the first is building it.
		var started sync.WaitGroup
		started.Add(2)
		builds := countBuilds(t, started.Wait)
		cache := NewImageCache(64 << 20)
		var ms [2]*Matrix
		var wg sync.WaitGroup
		for i, sc := range []Scale{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started.Done()
				m, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 2, Images: cache})
				if err != nil {
					t.Error(err)
				}
				ms[i] = m
			}()
		}
		wg.Wait()
		same(ms[0], refA)
		same(ms[1], refB)
		if n := builds(firstCell(a)); n != 1 {
			t.Errorf("two concurrent sweeps built the shared image %d times, want 1", n)
		}
	})
}

// TestImageCacheBound: images are kept least recently used first under
// the byte bound, and an image larger than the whole bound still serves
// the sweep that asked for it but is not kept.
func TestImageCacheBound(t *testing.T) {
	t.Run("oversized", func(t *testing.T) {
		builds := countBuilds(t, nil)
		small, big := btScale(t, 50), btScale(t, 50)
		big.CacheBytes = 4 << 20
		img, err := system.BuildWarmupImage(firstCell(small))
		if err != nil {
			t.Fatal(err)
		}
		// The bound holds the 1 MiB image but not the 4 MiB one.
		cache := NewImageCache(img.Bytes() * 3 / 2)
		sweepOK(t, small, MatrixOptions{Jobs: 2, Images: cache})
		sweepOK(t, big, MatrixOptions{Jobs: 2, Images: cache})
		sweepOK(t, big, MatrixOptions{Jobs: 2, Images: cache})
		sweepOK(t, small, MatrixOptions{Jobs: 2, Images: cache})
		if n := builds(firstCell(big)); n != 2 {
			t.Errorf("built the oversized image %d times, want 2 (not kept)", n)
		}
		if n := builds(firstCell(small)); n != 1 {
			t.Errorf("built the kept image %d times, want 1: the oversized one evicted it", n)
		}
		if cache.Len() != 1 || cache.Bytes() != img.Bytes() {
			t.Errorf("cache keeps %d images, %d bytes; want the 1 MiB image's %d", cache.Len(), cache.Bytes(), img.Bytes())
		}
	})

	t.Run("lru", func(t *testing.T) {
		builds := countBuilds(t, nil)
		cfgs := map[string]system.Config{}
		for _, name := range []string{"bt.C", "lu.C", "ft.C"} {
			wl, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfgs[name] = btScale(t, 50).Config(MatrixDesigns()[0], wl)
		}
		img, err := system.BuildWarmupImage(cfgs["bt.C"])
		if err != nil {
			t.Fatal(err)
		}
		// Equal geometries make equal sizes: the bound holds two images.
		cache := NewImageCache(2 * img.Bytes())
		for _, name := range []string{"bt.C", "lu.C", "bt.C", "ft.C", "bt.C", "lu.C"} {
			if img, err := imageFor(cache, cfgs[name]); img == nil || err != nil {
				t.Fatalf("%s: no image: %v", name, err)
			}
		}
		// ft.C evicted lu.C, the least recently used; bt.C stayed.
		for name, want := range map[string]int{"bt.C": 1, "lu.C": 2, "ft.C": 1} {
			if n := builds(cfgs[name]); n != want {
				t.Errorf("%s built %d times, want %d", name, n, want)
			}
		}
		if cache.Len() != 2 || cache.Bytes() != 2*img.Bytes() {
			t.Errorf("cache keeps %d images, %d bytes; want 2, %d", cache.Len(), cache.Bytes(), 2*img.Bytes())
		}
	})
}
