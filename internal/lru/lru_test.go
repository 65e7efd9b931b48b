package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// kept reports whether k's value is kept, refreshing its recency as any
// hit does.
func kept(c *Cache[string, string], k string) bool {
	_, hit, _ := c.Get(k, func() (string, int64, error) { return "", 0, errors.New("not kept") })
	return hit
}

func TestEvictionAtByteBound(t *testing.T) {
	c := New[string, string](100)
	c.Put("a", "a", 40)
	c.Put("b", "b", 40)
	if got := c.Bytes(); got != 80 {
		t.Fatalf("kept bytes = %d, want 80", got)
	}
	// c pushes the cache past 100 bytes; a is the least recently used.
	c.Put("c", "c", 40)
	if kept(c, "a") {
		t.Error("a survived eviction past the byte bound")
	}
	if !kept(c, "b") {
		t.Error("b evicted while under the bound")
	}
	if got := c.Bytes(); got > 100 {
		t.Errorf("kept bytes = %d, exceeds the 100-byte bound", got)
	}

	// Touching b (the hit above) made c the LRU entry: d must evict c.
	c.Put("d", "d", 40)
	if kept(c, "c") {
		t.Error("c survived; eviction is not recency-ordered")
	}
	if !kept(c, "b") {
		t.Error("recently used b was evicted")
	}

	// A value larger than the whole bound is returned but never kept,
	// put or loaded, and evicts nothing.
	c.Put("huge", "huge", 200)
	v, hit, err := c.Get("huge2", func() (string, int64, error) { return "huge2", 200, nil })
	if v != "huge2" || hit || err != nil {
		t.Errorf("oversized load = %q hit=%v err=%v, want the loaded value", v, hit, err)
	}
	if kept(c, "huge") || kept(c, "huge2") {
		t.Error("oversized value was kept")
	}
	if c.Len() != 2 || c.Bytes() != 80 {
		t.Errorf("after oversized values: %d entries, %d bytes; want b and d, 80", c.Len(), c.Bytes())
	}
}

// TestLoadOnce pins the read-through collapse: any number of concurrent
// misses for one key run exactly one load, and every caller shares the
// loaded value.
func TestLoadOnce(t *testing.T) {
	c := New[string, *string](1 << 20)
	var loads atomic.Int64
	gate := make(chan struct{})
	load := func() (*string, int64, error) {
		loads.Add(1)
		<-gate // hold every caller in the load window
		v := "payload"
		return &v, int64(len(v)), nil
	}

	const callers = 16
	var wg sync.WaitGroup
	vals := make([]*string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Get("id1", load)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Errorf("%d loads for %d concurrent callers, want 1", got, callers)
	}
	for i := 1; i < callers; i++ {
		if vals[i] != vals[0] {
			t.Fatalf("caller %d got a different value instance", i)
		}
	}
	// The next read is a hit.
	if _, hit, err := c.Get("id1", func() (*string, int64, error) {
		t.Error("kept value reloaded")
		return nil, 0, nil
	}); !hit || err != nil {
		t.Errorf("read after the load: hit=%v err=%v, want a hit", hit, err)
	}
}

// TestLoadOnceWithoutRoom: a cache too small for the value (bound 0)
// keeps nothing but still collapses concurrent loads. Unlike
// TestLoadOnce, callers that arrive after the load finished load again
// (nothing stays kept), so the first load is pinned in flight before
// any other caller starts.
func TestLoadOnceWithoutRoom(t *testing.T) {
	c := New[string, string](0)
	var loads atomic.Int64
	gate := make(chan struct{})
	inLoad := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // the first caller: registers the load, blocks in it
		defer wg.Done()
		if _, _, err := c.Get("id1", func() (string, int64, error) {
			loads.Add(1)
			close(inLoad)
			<-gate
			return "p", 1, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-inLoad // the loading entry exists from here until the gate opens

	const followers = 7
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Get("id1", func() (string, int64, error) {
				loads.Add(1)
				return "p", 1, nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	// Give the followers a beat to join the load, then release it. A
	// follower scheduled late at worst loads again; the assertion below
	// tolerates stragglers while still failing if collapsing is broken
	// outright (every follower loading for itself).
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := loads.Load(); got > 2 {
		t.Errorf("cache without room ran %d loads for %d concurrent callers, want collapse", got, followers+1)
	}
	if got := c.Len(); got != 0 {
		t.Errorf("cache without room kept %d entries", got)
	}
}

// TestFailedLoadNotKept: a failed load's error reaches its caller, and
// nothing is kept, so the next Get loads again.
func TestFailedLoadNotKept(t *testing.T) {
	c := New[string, string](1 << 20)
	errMiss := errors.New("miss")
	loads := 0
	for i := 0; i < 2; i++ {
		_, hit, err := c.Get("nope", func() (string, int64, error) {
			loads++
			return "", 0, errMiss
		})
		if hit || !errors.Is(err, errMiss) {
			t.Errorf("failed load: hit=%v err=%v, want the load's error", hit, err)
		}
	}
	if loads != 2 {
		t.Errorf("%d loads for two Gets of a failing key, want 2", loads)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("failed loads left %d entries, %d bytes", c.Len(), c.Bytes())
	}
}

func TestRepeatedPut(t *testing.T) {
	c := New[string, string](1 << 20)
	c.Put("a", "x", 10)
	c.Put("a", "x", 10)
	if got := c.Bytes(); got != 10 {
		t.Errorf("a repeated put accounts %d bytes, want 10", got)
	}
	if got := c.Len(); got != 1 {
		t.Errorf("a repeated put yields %d entries, want 1", got)
	}
}

// TestPutDuringLoadWins: a Put made while a load of its key runs leaves
// the put value kept; the load's caller still gets the loaded value.
func TestPutDuringLoadWins(t *testing.T) {
	c := New[string, string](1 << 20)
	inLoad, release := make(chan struct{}), make(chan struct{})
	loaded := make(chan string, 1)
	go func() {
		v, _, _ := c.Get("k", func() (string, int64, error) {
			close(inLoad)
			<-release
			return "loaded", 6, nil
		})
		loaded <- v
	}()
	<-inLoad
	c.Put("k", "put", 3)
	close(release)
	if v := <-loaded; v != "loaded" {
		t.Errorf("the load's caller got %q, want the loaded value", v)
	}
	v, hit, err := c.Get("k", func() (string, int64, error) {
		t.Error("put value reloaded")
		return "", 0, nil
	})
	if v != "put" || !hit || err != nil {
		t.Errorf("after the load: %q hit=%v err=%v, want the put value kept", v, hit, err)
	}
	if c.Len() != 1 || c.Bytes() != 3 {
		t.Errorf("%d entries, %d bytes; want the put value's 1, 3", c.Len(), c.Bytes())
	}
}
