package dramcache

import "fmt"

// This file builds warmed DRAM-cache content: the stand-in for the
// paper's LoopPoint checkpoints, which start every run with warmed SRAM
// and DRAM caches (§IV-B). A Prewarmer evolves a tag store purely
// functionally — tags.access + fillDone, no timing, no device state — so
// the resulting content depends only on the store's geometry (capacity,
// ways) and the access sequence, never on the design's protocol. One
// warmup pass therefore produces a TagImage every same-geometry design
// installs with InstallTags.

// TagImage is frozen prewarmed cache content in the tag store's packed
// form: one word per line and, when ways > 1, one LRU tick per line. It
// is immutable after Image() returns: installs deep-copy it, so any
// number of controllers can start from the same image.
type TagImage struct {
	sets    uint64
	ways    int
	lines   []uint64
	lru     []uint64 // nil when ways == 1
	lruTick uint64
}

// Prewarmer accumulates functional prewarm accesses against a private
// tag store with the same geometry a controller would build.
type Prewarmer struct {
	t *tagStore
}

// NewPrewarmer builds a prewarmer for a cache of capacityBytes split
// into ways (matching Config.CapacityBytes/Config.Ways; a zero ways
// selects the paper's direct-mapped default like Config.Validate does).
func NewPrewarmer(capacityBytes uint64, ways int) (*Prewarmer, error) {
	if ways == 0 {
		ways = 1
	}
	t, err := newTagStore(capacityBytes, ways)
	if err != nil {
		return nil, err
	}
	return &Prewarmer{t: t}, nil
}

// Prewarm applies one functional access: insert on miss, fill assumed
// done, victims dropped.
func (p *Prewarmer) Prewarm(line uint64, write bool) {
	p.t.access(line, write, true)
	if !write {
		p.t.fillDone(line)
	}
}

// Image freezes the accumulated content into an immutable TagImage and
// retires the Prewarmer: the image takes over its line and LRU arrays
// instead of copying them, so any later Prewarm or Image call panics.
//
//tdlint:copier TagImage
func (p *Prewarmer) Image() *TagImage {
	img := &TagImage{
		sets:    p.t.sets,
		ways:    p.t.ways,
		lines:   p.t.lines,
		lru:     p.t.lru,
		lruTick: p.t.lruTick,
	}
	p.t = nil
	return img
}

// Bytes reports the memory the image's arrays hold: 8 B per line, and
// 8 B more per line when the store keeps LRU ticks.
func (img *TagImage) Bytes() int64 {
	return 8 * int64(len(img.lines)+len(img.lru))
}

// InstallTags overwrites the controller's cache content with a deep
// copy of the image. It fails if the image's geometry does not match
// the controller's tag store. Installing into a NoCache controller
// (which has no tag store) is a no-op. Must be called before any
// traffic: installed content replaces whatever the store held.
func (c *Controller) InstallTags(img *TagImage) error {
	if c.tags == nil {
		return nil
	}
	if img.sets != c.tags.sets || img.ways != c.tags.ways {
		return fmt.Errorf("dramcache: tag image geometry %d sets x %d ways, controller has %d x %d",
			img.sets, img.ways, c.tags.sets, c.tags.ways)
	}
	copy(c.tags.lines, img.lines)
	copy(c.tags.lru, img.lru)
	c.tags.lruTick = img.lruTick
	return nil
}
