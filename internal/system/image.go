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
// configuration (different workload, seed, topology, or cache geometry).
// Callers build a private image instead (NewWithImage with a nil image).
var ErrIncompatibleImage = errors.New("system: warmup image incompatible with config")

// WarmupImage is frozen post-warmup state shared by every design cell
// of one workload. It is immutable once built: installs deep-copy the
// streams and hierarchies and the controller copies the tag content, so
// concurrent cells can fork from the same image.
type WarmupImage struct {
	// The parameters the warmup evolution depends on; a config must
	// match all of them for the image to seed it.
	workload string
	cores    int
	seed     uint64
	capacity uint64 // normalized stream-footprint capacity
	l1, l2   uint64 // normalized SRAM sizes

	streams []*workload.Stream
	hiers   []*cache.Hierarchy
	tags    *dramcache.TagImage // nil when the config has no tag store
}

// normalized defaults the sizing knobs so an image built from one
// design's config matches another design's. Workload footprints scale
// against the nominal cache capacity even in the no-cache configuration,
// so runtimes are comparable.
func (cfg *Config) normalized() (capacity, l1, l2 uint64) {
	capacity = cfg.Cache.CapacityBytes
	if capacity == 0 {
		capacity = 64 << 20
	}
	l1, l2 = cfg.L1Bytes, cfg.L2Bytes
	if l1 == 0 {
		l1 = 4 << 10
	}
	if l2 == 0 {
		l2 = 64 << 10
	}
	return capacity, l1, l2
}

// BuildWarmupImage runs the functional warmup pass for cfg's workload
// and freezes the result: each core's stream advances by twice its
// footprint (at least 4096 accesses) through its SRAM hierarchy, and
// L2 misses and dirty L2 victims evolve the DRAM-cache content. The image
// seeds any config that matches the workload/seed/topology parameters —
// in the experiment matrix, every design cell of the workload.
//
//tdlint:copier WarmupImage
func BuildWarmupImage(cfg Config) (*WarmupImage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	capacity, l1, l2 := cfg.normalized()
	img := &WarmupImage{
		workload: cfg.Workload.Name,
		cores:    cfg.Cores,
		seed:     cfg.Seed,
		capacity: capacity,
		l1:       l1,
		l2:       l2,
	}
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
		hier := cache.NewSizedHierarchy(l1, l2)
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

// CompatibleWith reports whether the image can seed cfg; the error
// (wrapping ErrIncompatibleImage) names the first mismatched parameter.
func (img *WarmupImage) CompatibleWith(cfg Config) error {
	mismatch := func(what string, img, cfg any) error {
		return fmt.Errorf("%w: %s %v vs %v", ErrIncompatibleImage, what, img, cfg)
	}
	if img.workload != cfg.Workload.Name {
		return mismatch("workload", img.workload, cfg.Workload.Name)
	}
	if img.cores != cfg.Cores {
		return mismatch("cores", img.cores, cfg.Cores)
	}
	if img.seed != cfg.Seed {
		return mismatch("seed", img.seed, cfg.Seed)
	}
	capacity, l1, l2 := cfg.normalized()
	if img.capacity != capacity {
		return mismatch("stream capacity", img.capacity, capacity)
	}
	if img.l1 != l1 || img.l2 != l2 {
		return mismatch("sram sizes", fmt.Sprintf("%d/%d", img.l1, img.l2), fmt.Sprintf("%d/%d", l1, l2))
	}
	if img.tags == nil && cfg.Cache.CapacityBytes > 0 && cfg.Cache.Design.Cached() {
		return fmt.Errorf("%w: image has no cache content but config has a tag store", ErrIncompatibleImage)
	}
	return nil
}
