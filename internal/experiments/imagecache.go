package experiments

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sync"

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
// is not kept. Results are bit-identical with or without a cache,
// because a forked cell never writes to its image.
//
// ImageCache is safe for concurrent use.
type ImageCache struct {
	maxBytes int64

	mu      sync.Mutex
	size    int64
	entries map[system.ImageKey]*cachedImage
	lru     list.List // kept entries, most recently used first
}

// cachedImage is one key's image: being built until ready closes, then
// kept (el != nil) or on its way out of the map.
type cachedImage struct {
	key   system.ImageKey
	ready chan struct{}
	img   *system.WarmupImage // nil when the build failed with err
	err   error
	bytes int64
	el    *list.Element
}

// NewImageCache builds a cache that keeps at most maxBytes of images.
func NewImageCache(maxBytes int64) *ImageCache {
	return &ImageCache{maxBytes: maxBytes, entries: make(map[system.ImageKey]*cachedImage)}
}

// get returns the image of cfg's image key, building it from cfg on
// first use. A failed build is not kept: every sweep waiting on it gets
// its error, and the next to ask builds again. A nil cache keeps
// nothing: every call builds.
func (c *ImageCache) get(cfg system.Config) (*system.WarmupImage, error) {
	if c == nil {
		return buildShared(cfg)
	}
	k := cfg.ImageKey()
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		if e.el != nil {
			c.lru.MoveToFront(e.el)
		}
		c.mu.Unlock()
		<-e.ready
		return e.img, e.err
	}
	e := &cachedImage{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.mu.Unlock()

	// The build runs outside the lock, so other keys' hits never wait
	// for it.
	e.img, e.err = buildShared(cfg)
	c.mu.Lock()
	if e.err == nil {
		e.bytes = e.img.Bytes()
	}
	if e.err != nil || e.bytes > c.maxBytes {
		delete(c.entries, k) // not kept: the next sweep to ask builds again
	} else {
		e.el = c.lru.PushFront(e)
		c.size += e.bytes
		for c.size > c.maxBytes {
			old := c.lru.Remove(c.lru.Back()).(*cachedImage)
			delete(c.entries, old.key)
			c.size -= old.bytes
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.img, e.err
}

// Bytes reports the kept images' array bytes (gauge).
func (c *ImageCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Len reports how many images are kept (gauge).
func (c *ImageCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
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
