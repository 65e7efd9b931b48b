package system

import (
	"testing"

	"tdram/internal/dramcache"
	"tdram/internal/workload"
)

func TestOpenPageSystemRuns(t *testing.T) {
	spec, _ := workload.ByName("ft.C")
	cfg := DefaultConfig(dramcache.CascadeLake, spec, 8<<20)
	cfg.RequestsPerCore = 1500
	cfg.WarmupPerCore = 300
	cfg.Cache.OpenPage = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheRowHits == 0 {
		t.Error("open-page system recorded no row hits on a scan-heavy workload")
	}
	if res.CacheActivates == 0 {
		t.Error("no activates recorded")
	}
}

func TestOpenPageRejectsTDRAM(t *testing.T) {
	spec, _ := workload.ByName("ft.C")
	cfg := DefaultConfig(dramcache.TDRAM, spec, 8<<20)
	cfg.Cache.OpenPage = true
	if _, err := New(cfg); err == nil {
		t.Fatal("open-page TDRAM accepted; ActRd/ActWr auto-precharge forbids it")
	}
}

func TestPrefetcherSystemRuns(t *testing.T) {
	spec, _ := workload.ByName("mg.C") // scan-heavy: strides to learn
	cfg := DefaultConfig(dramcache.TDRAM, spec, 8<<20)
	cfg.RequestsPerCore = 1500
	cfg.WarmupPerCore = 300
	cfg.Cache.UsePrefetcher = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.PrefetchesIssued == 0 {
		t.Error("no prefetches issued on a scan-heavy workload")
	}
}
