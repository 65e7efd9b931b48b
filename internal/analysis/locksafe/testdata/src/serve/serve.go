// Package serve exercises locksafe: mu-guarded fields accessed without
// the lock, the Locked-suffix and constructor exemptions, the closure
// boundary, generic structs, and the atomic-field rule.
package serve

import (
	"sync"
	"sync/atomic"
)

type server struct {
	name string // before mu: not guarded
	busy atomic.Int64

	mu     sync.Mutex
	jobs   map[string]int
	closed bool
}

// ---- firing: unguarded reads and writes ----

func (s *server) badRead() int {
	return s.jobs["a"] // want `field server\.jobs is guarded by mu but accessed without holding it`
}

func (s *server) badWrite() {
	s.closed = true // want `field server\.closed is guarded by mu but accessed without holding it`
}

// ---- passing: plain Lock/Unlock bracketing ----

func (s *server) goodWrite(id string, n int) {
	s.mu.Lock()
	s.jobs[id] = n
	s.mu.Unlock()
}

// ---- passing: deferred unlock keeps the section open ----

func (s *server) goodDefer() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	return len(s.jobs)
}

// ---- firing: access after the unlock ----

func (s *server) badAfterUnlock() int {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	return n + len(s.jobs) // want `field server\.jobs is guarded by mu`
}

// ---- passing: lock dominates nested statements ----

func (s *server) goodNested(ids []string) int {
	total := 0
	s.mu.Lock()
	for _, id := range ids {
		if n, ok := s.jobs[id]; ok {
			total += n
		}
	}
	s.mu.Unlock()
	return total
}

// ---- passing: the caller-holds convention ----

func (s *server) sizeLocked() int {
	return len(s.jobs)
}

func (s *server) viaLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sizeLocked()
}

// ---- passing: constructor exemption ----

func newServer() *server {
	s := &server{jobs: make(map[string]int)}
	s.jobs["seed"] = 1
	return s
}

// ---- firing: a closure is a goroutine boundary ----

func (s *server) badClosure() func() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() int {
		return len(s.jobs) // want `field server\.jobs is guarded by mu`
	}
}

// ---- passing: the closure takes its own lock ----

func (s *server) goodClosure() func() int {
	return func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	}
}

// ---- atomic fields: methods only ----

func (s *server) goodAtomic() int64 {
	s.busy.Add(1)
	return s.busy.Load()
}

func (s *server) badAtomic() int64 {
	n := s.busy // want `atomic field server\.busy accessed non-atomically`
	return n.Load()
}

// ---- RWMutex: RLock counts as holding ----

type table struct {
	mu   sync.RWMutex
	rows map[string]string
}

func (t *table) get(k string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[k]
}

// ---- generic structs: a field typed by a type parameter is guarded too ----

type cache[K comparable, V any] struct {
	mu   sync.Mutex
	vals map[K]V
}

func (c *cache[K, V]) badGenericRead(k K) V {
	return c.vals[k] // want `field cache\.vals is guarded by mu but accessed without holding it`
}

func (c *cache[K, V]) goodGenericRead(k K) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[k]
}

// ---- allow: a documented exemption ----

func (s *server) allowedPeek() bool {
	//tdlint:allow locksafe — racy read is acceptable for the debug endpoint
	return s.closed
}
