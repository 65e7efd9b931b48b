package system

import (
	"errors"
	"fmt"

	"tdram/internal/cache"
	"tdram/internal/dramcache"
	"tdram/internal/workload"
)

// This file implements the functional warmup every System starts from —
// the stand-in for the paper's LoopPoint checkpoints with warmed caches.
// The warmup pass takes zero simulated time, schedules no events and
// touches no device state, and its evolution (workload stream positions,
// SRAM hierarchy content, DRAM cache content) depends only on the
// workload, seed, core count, and the cache geometries, never on the
// design's timing protocol: every design sees the identical access
// sequence and applies the identical insert-on-miss transition. A
// WarmupImage captures that post-warmup state; a System installs deep
// copies of it and runs its timed warmup + measured phases from there.
// One image can therefore seed every design cell of a workload, and
// because the image is taken before the first timed event, a cell's
// Result is the same whether its image was shared or built for it alone.

// ErrIncompatibleImage reports that a WarmupImage cannot seed the given
// configuration: its image key differs, or the tag-store geometry does
// not install. Callers build a private image instead (NewWithImage with
// a nil image).
var ErrIncompatibleImage = errors.New("system: warmup image incompatible with config")

// ImageKey is every Config parameter the functional warmup reads: the
// workload, seed, core count and DRAM-cache geometry, as configured.
// Configs with equal keys build identical images
// (TestImageKeyCoversWarmup), so one image seeds them all — in the
// experiment matrix, every design cell of a workload.
type ImageKey struct {
	Workload workload.Spec
	Seed     uint64
	Cores    int
	Capacity uint64 // DRAM-cache capacity; zero builds no tag content
	Ways     int
}

// ImageKey reports the key of the warmup image c forks from.
func (c *Config) ImageKey() ImageKey {
	return ImageKey{Workload: c.Workload, Seed: c.Seed, Cores: c.Cores,
		Capacity: c.Cache.CapacityBytes, Ways: c.Cache.Ways}
}

// WarmupImage is frozen post-warmup state shared by every config with
// its image key. It is immutable once built: installs deep-copy the
// streams and hierarchies and the controller copies the tag content, so
// concurrent cells can fork from the same image.
type WarmupImage struct {
	key     ImageKey
	streams []*workload.Stream
	hiers   []*cache.Hierarchy
	tags    *dramcache.TagImage // nil when the config has no tag store
}

// l1Bytes and l2Bytes size each core's SRAM stack: the Table III sizes
// scaled down along with the DRAM cache capacity, so the SRAM levels
// absorb a proportionate share of reuse.
const (
	l1Bytes = 4 << 10
	l2Bytes = 64 << 10
)

// BuildWarmupImage runs the functional warmup pass for cfg's workload
// and freezes the result: each core's stream advances by twice its
// footprint (at least 4096 accesses) through its SRAM hierarchy, and
// L2 misses and dirty L2 victims evolve the DRAM-cache content. The image
// seeds any config with cfg's image key.
//
//tdlint:copier WarmupImage
func BuildWarmupImage(cfg Config) (*WarmupImage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Workload footprints scale against the nominal cache capacity even
	// in the no-cache configuration, so runtimes are comparable.
	capacity := cfg.Cache.CapacityBytes
	if capacity == 0 {
		capacity = 64 << 20
	}
	img := &WarmupImage{key: cfg.ImageKey()}
	var pw *dramcache.Prewarmer
	if cfg.Cache.CapacityBytes > 0 {
		var err error
		if pw, err = dramcache.NewPrewarmer(cfg.Cache.CapacityBytes, cfg.Cache.Ways); err != nil {
			return nil, err
		}
	}
	var n int
	for i := 0; i < cfg.Cores; i++ {
		st := cfg.Workload.NewStream(i, cfg.Cores, capacity, cfg.Seed)
		hier := cache.NewSizedHierarchy(l1Bytes, l2Bytes)
		if pw != nil {
			// Dirty L2 victims reach the tag store during the access,
			// before the miss does, as a running core's writebacks reach
			// the controller.
			hier.WriteBack = func(line uint64) { pw.Prewarm(line, true) }
		}
		if i == 0 {
			n = max(int(2*st.Lines()), 4096)
		}
		for a := 0; a < n; a++ {
			line, store, _ := st.Next()
			res := hier.Access(line, store)
			if res.Missed && pw != nil {
				pw.Prewarm(res.MissLine, false)
			}
		}
		hier.WriteBack = nil
		img.streams = append(img.streams, st)
		img.hiers = append(img.hiers, hier)
	}
	if pw != nil {
		img.tags = pw.Image()
	}
	return img, nil
}

// Bytes reports the memory the image's arrays hold: the tag array and
// every core's L1/L2 content (the streams hold none). A cache keeping
// images across sweeps bounds itself by it.
func (img *WarmupImage) Bytes() int64 {
	var n int64
	if img.tags != nil {
		n = img.tags.Bytes()
	}
	for _, h := range img.hiers {
		n += h.Bytes()
	}
	return n
}

// CompatibleWith reports whether the image can seed cfg: whether their
// image keys are equal. The error wraps ErrIncompatibleImage and prints
// both keys.
func (img *WarmupImage) CompatibleWith(cfg Config) error {
	if k := cfg.ImageKey(); k != img.key {
		return fmt.Errorf("%w: image key %+v, config key %+v", ErrIncompatibleImage, img.key, k)
	}
	return nil
}
