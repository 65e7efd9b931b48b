package serve

import (
	"container/list"
	"strconv"
	"sync"
)

// memTier is the bytes-bounded in-memory result cache that sits above
// the crash-safe disk Store. The disk store made repeat submissions
// cheap — microseconds of simulation amortized to a file read — but a
// file read, checksum verification, and response re-framing on every
// hit is still the wrong cost model for a hot configuration: the paper's
// core argument is that hit latency is decided by what sits on the
// critical path, and for tdserve the critical path of a hot hit should
// be one map lookup and one socket write.
//
// Entries hold the stored result bytes verbatim plus the precomputed
// response framing (ETag, Content-Length string), so the HTTP tier
// serves a memory hit zero-copy: no disk read, no re-hash, no
// re-marshal — the cached byte slice is handed straight to the
// ResponseWriter. Payloads are immutable by contract (the store never
// rewrites a result in place under one code version; a new code version
// is a new Server and a new tier), which is what makes sharing the
// slice across requests sound, and why the tier needs no per-version
// invalidation beyond dying with its Server.
//
// Reads go through GetOrLoad with singleflight collapsing: any number
// of concurrent requests for one absent id trigger exactly one disk
// read; the followers block on the leader's call and share its entry.
// The tier is bounded in payload bytes with LRU eviction.
type memTier struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	entries  map[string]*list.Element // id -> element holding *memEntry
	lru      list.List                // front = most recently used
	flight   map[string]*flightCall
}

// memEntry is one cached result: the stored bytes plus the framing the
// HTTP tier would otherwise recompute per request.
type memEntry struct {
	id      string
	payload []byte
	etag    string // strong ETag: "<id>.<code-version>", quoted
	clen    string // strconv.Itoa(len(payload)), precomputed
}

// flightCall is one in-progress load; followers wait on done.
type flightCall struct {
	done chan struct{}
	e    *memEntry // nil when the load missed
}

func newMemTier(maxBytes int64) *memTier {
	return &memTier{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		flight:   make(map[string]*flightCall),
	}
}

func newMemEntry(id, version string, payload []byte) *memEntry {
	return &memEntry{
		id:      id,
		payload: payload,
		etag:    `"` + id + "." + version + `"`,
		clen:    strconv.Itoa(len(payload)),
	}
}

// Get returns the resident entry for id, refreshing its recency. It
// never touches disk.
func (t *memTier) Get(id string) (*memEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[id]
	if !ok {
		return nil, false
	}
	t.lru.MoveToFront(el)
	return el.Value.(*memEntry), true
}

// GetOrLoad returns the entry for id, reading through to load on a
// memory miss. The returned tier names who answered: "mem" for a
// resident entry, "disk" for a read-through (leader or follower of the
// same singleflight). ok=false means the load itself missed — the
// result exists in neither tier.
func (t *memTier) GetOrLoad(id, version string, load func() ([]byte, bool)) (e *memEntry, tier string, ok bool) {
	t.mu.Lock()
	if el, hit := t.entries[id]; hit {
		t.lru.MoveToFront(el)
		e = el.Value.(*memEntry)
		t.mu.Unlock()
		return e, "mem", true
	}
	if c, inflight := t.flight[id]; inflight {
		t.mu.Unlock()
		<-c.done
		if c.e == nil {
			return nil, "disk", false
		}
		return c.e, "disk", true
	}
	c := &flightCall{done: make(chan struct{})}
	t.flight[id] = c
	t.mu.Unlock()

	// The load runs outside the lock: a slow disk read must not stall
	// memory hits for other ids.
	payload, loaded := load()
	if loaded {
		c.e = newMemEntry(id, version, payload)
	}
	t.mu.Lock()
	delete(t.flight, id)
	if c.e != nil {
		t.insertLocked(c.e)
	}
	t.mu.Unlock()
	close(c.done)
	if c.e == nil {
		return nil, "disk", false
	}
	return c.e, "disk", true
}

// Put inserts a freshly produced result (write-through from the job
// worker), so the first GET after a simulation is already a memory hit.
func (t *memTier) Put(id, version string, payload []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insertLocked(newMemEntry(id, version, payload))
}

// Remove drops id from the tier (tests, and operator-forced refresh).
func (t *memTier) Remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[id]; ok {
		t.removeLocked(el)
	}
}

// insertLocked caches e, evicting least-recently-used entries past the
// byte bound. An entry larger than the whole bound is not cached at all
// (it would evict everything and then be evicted by the next insert);
// the caller still serves it, just without residency.
func (t *memTier) insertLocked(e *memEntry) {
	if int64(len(e.payload)) > t.maxBytes {
		return
	}
	if el, ok := t.entries[e.id]; ok {
		// Same id, same bytes (determinism); keep the resident entry.
		t.lru.MoveToFront(el)
		return
	}
	t.entries[e.id] = t.lru.PushFront(e)
	t.size += int64(len(e.payload))
	for t.size > t.maxBytes {
		back := t.lru.Back()
		if back == nil {
			break
		}
		t.removeLocked(back)
	}
}

func (t *memTier) removeLocked(el *list.Element) {
	e := el.Value.(*memEntry)
	t.lru.Remove(el)
	delete(t.entries, e.id)
	t.size -= int64(len(e.payload))
}

// Bytes reports the resident payload bytes (gauge).
func (t *memTier) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Len reports the resident entry count (gauge).
func (t *memTier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
