package experiments

import (
	"fmt"
	"runtime/debug"

	"tdram/internal/lru"
	"tdram/internal/system"
)

// ImageCache keeps warmup images across sweeps. A sweep handed one (see
// MatrixOptions.Images) asks it for each image key's (system.ImageKey)
// image before building, so a sweep over a workload, seed, core count
// and cache geometry an earlier sweep used forks from that sweep's
// image. Each key is built once even when concurrent sweeps ask for it
// together: the first builds, the rest wait for its image. Images are
// kept under a byte bound, measured from each image's own arrays
// (system.WarmupImage.Bytes), and evicted least recently used; an image
// larger than the whole bound serves the sweeps that asked for it and
// is not kept, and a failed build is not kept either. Results are
// bit-identical with or without a cache, because a forked cell never
// writes to its image.
type ImageCache = lru.Cache[system.ImageKey, *system.WarmupImage]

// NewImageCache builds a cache that keeps at most maxBytes of images.
func NewImageCache(maxBytes int64) *ImageCache {
	return lru.New[system.ImageKey, *system.WarmupImage](maxBytes)
}

// imageFor returns the image of cfg's image key from cache, building it
// from cfg on the key's first use. A nil cache keeps nothing: every call
// builds.
func imageFor(cache *ImageCache, cfg system.Config) (*system.WarmupImage, error) {
	if cache == nil {
		return buildShared(cfg)
	}
	img, _, err := cache.Get(cfg.ImageKey(), func() (*system.WarmupImage, int64, error) {
		img, err := buildShared(cfg)
		if err != nil {
			return nil, 0, err
		}
		return img, img.Bytes(), nil
	})
	return img, err
}

// buildShared builds the warmup image cfg's image key shares. A failed
// build, a panicking one included, returns an error that fails every
// cell of the key.
func buildShared(cfg system.Config) (img *system.WarmupImage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
		if err != nil {
			img, err = nil, fmt.Errorf("warmup image: %w", err)
		}
	}()
	return buildImage(cfg)
}
