// Package lru provides a byte-bounded least-recently-used cache that
// loads a missing key once however many callers ask for it together.
// tdserve keeps its memory result tier in one and the experiment runner
// its warmup images.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values under a bound on the values' summed sizes,
// evicting the least recently used. Get loads a missing key once
// however many callers ask for it concurrently: the first runs the
// load, the rest wait for it and share its value and error. A failed
// load, or a value larger than the whole bound, is returned to every
// caller that waited for it but not kept, so the next Get loads again.
//
// Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	maxBytes int64

	mu      sync.Mutex
	size    int64
	entries map[K]*entry[K, V] // kept and loading entries
	lru     list.List          // kept entries, most recently used first
}

// entry is one key's value: being loaded until ready closes, then kept
// (el != nil) or out of the map. A put entry has no ready channel: it is
// kept from the start or not at all. Its val, bytes and err do not
// change once it is kept or ready is closed.
type entry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	bytes int64
	err   error
	el    *list.Element
}

// New builds a cache that keeps at most maxBytes of values.
func New[K comparable, V any](maxBytes int64) *Cache[K, V] {
	return &Cache[K, V]{maxBytes: maxBytes, entries: make(map[K]*entry[K, V])}
}

// Get returns k's value. A kept value is returned with hit true and
// becomes the most recently used; otherwise load produces the value and
// its size in bytes, or an error, which Get returns with hit false to
// every caller that asked for k while it ran. load must not panic.
func (c *Cache[K, V]) Get(k K, load func() (V, int64, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok && e.el != nil {
		c.lru.MoveToFront(e.el)
		c.mu.Unlock()
		return e.val, true, nil
	}
	if ok {
		c.mu.Unlock()
		<-e.ready
		return e.val, false, e.err
	}
	e = &entry[K, V]{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.mu.Unlock()

	// The load runs outside the lock, so hits on other keys never wait
	// for it.
	e.val, e.bytes, e.err = load()
	c.mu.Lock()
	if c.entries[k] == e { // else a Put replaced the load
		if e.err == nil {
			c.keepLocked(e)
		} else {
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.val, false, e.err
}

// Put keeps v, of the given size, as k's value. It replaces a kept
// value and wins over a load of k in flight: the load's callers get the
// loaded value, later callers v.
func (c *Cache[K, V]) Put(k K, v V, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok && e.el != nil {
		c.evictLocked(e.el)
	}
	c.keepLocked(&entry[K, V]{key: k, val: v, bytes: bytes})
}

// keepLocked keeps e as its key's value, most recently used, and evicts
// least recently used entries past the bound. A value larger than the
// whole bound is not kept (it would evict everything and then be evicted
// by the next keep).
func (c *Cache[K, V]) keepLocked(e *entry[K, V]) {
	if e.bytes > c.maxBytes {
		delete(c.entries, e.key)
		return
	}
	c.entries[e.key] = e
	e.el = c.lru.PushFront(e)
	c.size += e.bytes
	for c.size > c.maxBytes {
		c.evictLocked(c.lru.Back())
	}
}

func (c *Cache[K, V]) evictLocked(el *list.Element) {
	e := c.lru.Remove(el).(*entry[K, V])
	delete(c.entries, e.key)
	c.size -= e.bytes
}

// Bytes reports the kept values' summed sizes (gauge).
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Len reports how many values are kept (gauge).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
