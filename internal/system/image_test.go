package system

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tdram/internal/dramcache"
	"tdram/internal/workload"
)

// TestImageBytesMatchesArrays: a 16 MiB image reports exactly the arrays
// it holds — 8 B per DRAM-cache line direct-mapped and 16 B at 8 ways
// (the LRU ticks), plus 8 cores × 1,088 SRAM lines (L1 and L2) × 8 B and
// their 136 8-way sets × 16 B (the recency word and its tick) — so a
// cache of images bounded by Bytes cannot drift from what it keeps.
func TestImageBytesMatchesArrays(t *testing.T) {
	spec, err := workload.ByName("bfs.22")
	if err != nil {
		t.Fatal(err)
	}
	const capacity, lines = 16 << 20, 16 << 20 / 64
	for _, c := range []struct {
		ways    int
		perLine int64
	}{{1, 8}, {8, 16}} {
		cfg := DefaultConfig(dramcache.TDRAM, spec, capacity)
		cfg.Cache.Ways = c.ways
		img, err := BuildWarmupImage(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := img.Bytes(), lines*c.perLine+8*(1088*8+136*16); got != want {
			t.Errorf("%d-way image: Bytes() = %d, want %d", c.ways, got, want)
		}
	}
}

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

// An image must refuse to seed configs with another image key, naming
// ErrIncompatibleImage so callers build their own.
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

	// The tag-store geometry is part of the key too.
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

// TestImageKeyCoversWarmup guards ImageKey against drift: every Config
// leaf field either enters the key or leaves the warmup image unchanged,
// so configs with equal keys may share one image. Each field is mutated
// in turn on a 1 MiB config; mutations Validate rejects are skipped,
// and one that keeps the key must build an image DeepEqual to the base
// config's.
func TestImageKeyCoversWarmup(t *testing.T) {
	base := smallConfig(t, dramcache.TDRAM, "is.C")
	base.Cache = dramcache.DefaultConfig(dramcache.TDRAM, 1<<20)
	baseImg, err := BuildWarmupImage(base)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			name := path + f.Name
			cfg := base
			v := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
			switch {
			case v.Kind() == reflect.Struct:
				walk(f.Type, idx, name+".")
				continue
			case !v.CanSet():
				t.Fatalf("%s: unexported field", name)
			case v.Kind() == reflect.Bool:
				v.SetBool(!v.Bool())
			case v.CanInt():
				v.SetInt(v.Int() + 1)
			case v.CanUint():
				v.SetUint(v.Uint() + 1)
			case v.CanFloat():
				v.SetFloat(v.Float() + 0.5)
			case v.Kind() == reflect.String:
				v.SetString(v.String() + "x")
			default:
				t.Fatalf("%s: unhandled kind %v", name, v.Kind())
			}
			if cfg.Validate() != nil || cfg.ImageKey() != base.ImageKey() {
				continue
			}
			img, err := BuildWarmupImage(cfg)
			if err != nil {
				t.Errorf("Config.%s mutation: BuildWarmupImage: %v", name, err)
			} else if !reflect.DeepEqual(img, baseImg) {
				t.Errorf("Config.%s changes the warmup image but not ImageKey", name)
			}
		}
	}
	walk(reflect.TypeOf(base), nil, "")
}
