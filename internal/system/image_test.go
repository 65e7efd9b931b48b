package system

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tdram/internal/dramcache"
)

// The fork soundness property: a cell seeded from a shared WarmupImage
// (built under TDRAM's config) must produce a Result bit-identical to
// the same cell replaying the warmup into an image of its own — for
// every design, since the image is built once per workload and shared
// across them. reflect.DeepEqual covers every
// counter, histogram bucket, energy meter, and traffic byte in the
// Result; the %+v comparison is the same fingerprint the kernel golden
// test pins.
func TestForkedWarmupBitIdentical(t *testing.T) {
	designs := append(dramcache.Designs(), dramcache.NoCache)
	if testing.Short() {
		designs = []dramcache.Design{dramcache.TDRAM, dramcache.CascadeLake, dramcache.NoCache}
	}
	for _, wl := range []string{"is.C", "cc.25"} {
		cfg := smallConfig(t, dramcache.TDRAM, wl)
		img, err := BuildWarmupImage(cfg)
		if err != nil {
			t.Fatalf("%s: BuildWarmupImage: %v", wl, err)
		}
		for _, d := range designs {
			cfg := smallConfig(t, d, wl)
			replayed, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%v: replay run: %v", wl, d, err)
			}
			forked, err := RunWithImage(cfg, img)
			if err != nil {
				t.Fatalf("%s/%v: forked run: %v", wl, d, err)
			}
			if !reflect.DeepEqual(replayed, forked) {
				t.Errorf("%s/%v: forked result differs from replayed:\nreplay %+v\nfork   %+v",
					wl, d, replayed, forked)
			}
			if rs, fs := fmt.Sprintf("%+v", replayed), fmt.Sprintf("%+v", forked); rs != fs {
				t.Errorf("%s/%v: result fingerprints differ", wl, d)
			}
		}
	}
}

// An image must refuse to seed configs whose warmup evolution it does
// not describe, naming ErrIncompatibleImage so callers build their own.
func TestWarmupImageCompatibility(t *testing.T) {
	base := smallConfig(t, dramcache.TDRAM, "is.C")
	img, err := BuildWarmupImage(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.CompatibleWith(base); err != nil {
		t.Fatalf("image rejects its own config: %v", err)
	}
	// Same workload, different design: compatible (the matrix case).
	other := smallConfig(t, dramcache.Alloy, "is.C")
	if err := img.CompatibleWith(other); err != nil {
		t.Fatalf("image rejects sibling design: %v", err)
	}

	mutations := map[string]func(*Config){
		"workload": func(c *Config) { c.Workload.Name = "other" },
		"cores":    func(c *Config) { c.Cores = 4 },
		"seed":     func(c *Config) { c.Seed = 99 },
		"capacity": func(c *Config) { c.Cache.CapacityBytes = 1 << 20 },
		"l2":       func(c *Config) { c.L2Bytes = 128 << 10 },
	}
	for name, mutate := range mutations {
		cfg := smallConfig(t, dramcache.TDRAM, "is.C")
		mutate(&cfg)
		err := img.CompatibleWith(cfg)
		if !errors.Is(err, ErrIncompatibleImage) {
			t.Errorf("%s mutation: err = %v, want ErrIncompatibleImage", name, err)
		}
		if _, err := NewWithImage(cfg, img); !errors.Is(err, ErrIncompatibleImage) {
			t.Errorf("%s mutation: NewWithImage err = %v, want ErrIncompatibleImage", name, err)
		}
	}

	// The tag-store geometry is checked when the content is installed.
	ways := smallConfig(t, dramcache.TDRAM, "is.C")
	ways.Cache.Ways = 8
	if _, err := NewWithImage(ways, img); !errors.Is(err, ErrIncompatibleImage) {
		t.Errorf("ways mutation: NewWithImage err = %v, want ErrIncompatibleImage", err)
	}

	// A nil image builds a private one.
	if _, err := NewWithImage(base, nil); err != nil {
		t.Errorf("NewWithImage(nil): %v", err)
	}
}

// An image is reusable: two cells forked from it must not interfere
// through shared stream/hierarchy/tag state.
func TestWarmupImageReusable(t *testing.T) {
	cfg := smallConfig(t, dramcache.TDRAM, "is.C")
	cfg.RequestsPerCore = 500
	cfg.WarmupPerCore = 100
	img, err := BuildWarmupImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunWithImage(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunWithImage(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two forks of the same image diverge:\nfirst  %+v\nsecond %+v", first, second)
	}
}
