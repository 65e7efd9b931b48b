package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// maxRequestBytes bounds a submission body; a service that decodes
// unbounded client JSON is one curl away from OOM.
const maxRequestBytes = 1 << 20

// Handler builds the HTTP API:
//
//	POST /jobs              submit a configuration (202, or 200 on a store hit)
//	GET  /jobs/{id}         job status
//	GET  /jobs/{id}/result  the result document (200 done, 202 pending, 409 failed)
//	GET  /jobs/{id}/events  server-sent progress events
//	GET  /healthz           liveness + code version + queue/worker/token occupancy
//	GET  /metricz           serving-tier metrics snapshot (counters, gauges, latency hists)
//
// POST /jobs?wait=1 blocks until the job reaches a terminal state and
// responds like GET .../result — the one-call mode the benchmark's
// serve-mixed clients and the kill-and-restart e2e test use.
//
// Result responses carry the zero-copy hit framing: a strong ETag
// derived from the content address and code version (If-None-Match
// revalidates to 304 without a body), an explicit Content-Length, the
// stored bytes verbatim, and a Tdserve-Cache header naming the tier
// that answered — "mem", "disk", or "miss" (a fresh simulation).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /jobs/{id}", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/result", s.instrument("result", s.handleResult))
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents) // SSE: open-ended, not latency-histogrammed
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /metricz", s.instrument("metricz", s.handleMetrics))
	return mux
}

// instrument wraps a handler with its per-endpoint latency histogram
// (http.<name> in /metricz).
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.Hist("http." + name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := wallNow()
		h(w, r)
		hist.Observe(wallSince(start))
	}
}

// submitAck is the 202 body for an admitted (or joined) job.
type submitAck struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Cells     int    `json:"cells"`
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
	EventsURL string `json:"events_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if err := req.Canonicalize(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := req.ID()

	// The fast path the whole design exists for: a known configuration
	// is served from the memory tier (or read through from disk, once,
	// however many clients ask concurrently) without touching a
	// simulator — or a worker, or the disk, when the entry is hot.
	if e, tier, ok := s.lookupResult(id); ok {
		s.writeResultEntry(w, r, e, tier)
		return
	}
	s.cMisses.Inc()

	j, err := s.Admit(id, req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Explicit backpressure: bounded memory, and the client knows
		// when to come back rather than hammering — the hint tracks the
		// live drain rate, not a constant.
		s.cRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.cAdmitted.Inc()

	if r.URL.Query().Get("wait") != "" {
		s.waitAndServeResult(w, r, j)
		return
	}
	w.Header().Set("Tdserve-Cache", "miss")
	writeJSON(w, http.StatusAccepted, submitAck{
		ID: id, State: j.Status().State, Cells: j.Status().Total,
		StatusURL: "/jobs/" + id,
		ResultURL: "/jobs/" + id + "/result",
		EventsURL: "/jobs/" + id + "/events",
	})
}

// lookupResult resolves id through the two-tier store and bumps the
// per-tier hit counters. ok=false is a full miss (no counter; the
// caller decides whether it is a submission miss or a pending read).
func (s *Server) lookupResult(id string) (*memEntry, string, bool) {
	e, tier, ok := s.tier.GetOrLoad(id, s.version, func() ([]byte, bool) {
		return s.store.GetResult(id)
	})
	if !ok {
		return nil, "", false
	}
	if tier == "mem" {
		s.cMemHits.Inc()
	} else {
		s.cDiskHits.Inc()
	}
	return e, tier, true
}

// writeResultEntry is the zero-copy hit path: the cached entry's bytes
// go to the socket verbatim under precomputed framing. An If-None-Match
// revalidation match short-circuits to 304 with no body at all — the
// cheapest hit there is.
func (s *Server) writeResultEntry(w http.ResponseWriter, r *http.Request, e *memEntry, tier string) {
	h := w.Header()
	h.Set("Tdserve-Cache", tier)
	h.Set("ETag", e.etag)
	if etagMatch(r.Header.Get("If-None-Match"), e.etag) {
		s.c304s.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", e.clen)
	w.Write(e.payload)
}

// etagMatch reports whether an If-None-Match header value matches etag.
// Results are content-addressed, so a weak-comparison match (W/ prefix)
// is as good as a strong one.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// waitAndServeResult blocks on the job's event stream until a terminal
// state, then responds exactly like GET /jobs/{id}/result — except that
// a completed job is reported as Tdserve-Cache: miss, because this
// response paid for a simulation, whichever tier the bytes came back
// through.
func (s *Server) waitAndServeResult(w http.ResponseWriter, r *http.Request, j *Job) {
	ch, cancel := j.Subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return // client gave up; the job keeps running
		case ev, ok := <-ch:
			if !ok {
				s.serveResult(w, r, j.id, "miss")
				return
			}
			if ev.Type == "state" &&
				(ev.State == StateDone || ev.State == StateFailed || ev.State == StateInterrupted) {
				s.serveResult(w, r, j.id, "miss")
				return
			}
		}
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.Job(id); ok {
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	// The process restarted since this job ran; the store remembers.
	if _, _, ok := s.lookupResult(id); ok {
		writeJSON(w, http.StatusOK, Status{ID: id, State: StateDone})
		return
	}
	httpError(w, http.StatusNotFound, "unknown job "+id)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.serveResult(w, r, r.PathValue("id"), "")
}

// serveResult serves id's result through the two-tier store. tierOverride
// forces the Tdserve-Cache header ("miss" for a response that paid for
// its simulation); empty reports the tier that actually answered.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, id string, tierOverride string) {
	if e, tier, ok := s.lookupResult(id); ok {
		if tierOverride != "" {
			tier = tierOverride
		}
		s.writeResultEntry(w, r, e, tier)
		return
	}
	j, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	st := j.Status()
	switch st.State {
	case StateFailed:
		writeJSON(w, http.StatusConflict, st)
	case StateDone:
		// Done but both tiers missed: the entry was corrupted after the
		// fact and is not memory-resident. Per the store contract that
		// is a miss, not a 500 — report the job as gone so the client
		// re-submits (determinism guarantees the re-run reproduces the
		// same document).
		httpError(w, http.StatusNotFound, "result for "+id+" is no longer readable; re-submit")
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, cancel := j.Subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":               true,
		"code_version":     s.version,
		"queue_len":        s.QueueLen(),
		"queue_depth":      s.QueueDepth(),
		"workers":          s.workers,
		"workers_busy":     s.busy.Load(),
		"tokens_total":     s.budget.Total(),
		"tokens_inflight":  s.budget.InUse(),
		"memcache_bytes":   s.tier.Bytes(),
		"memcache_entries": s.tier.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
