package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdram/internal/experiments"
	"tdram/internal/obs/service"
)

// tinyRequest is the smallest job the tests run: one workload, seven
// design cells, a few thousand simulated accesses.
func tinyRequest() Request {
	return Request{
		Workloads:       []string{"bt.C"},
		CacheMB:         1,
		RequestsPerCore: 50,
		WarmupPerCore:   10,
	}
}

// slowRequest runs long enough (tens of ms per cell when serial) that
// the resume test can shut the server down after the first cell with
// several cells' worth of margin before the job could finish.
func slowRequest() Request {
	r := tinyRequest()
	r.RequestsPerCore = 8000
	r.WarmupPerCore = 200
	return r
}

func newTestServer(t *testing.T, dir string, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Dir: dir, Version: "test", QueueDepth: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

// waitTerminal drains a job's event stream until a terminal state.
func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	ch, cancel := j.Subscribe()
	defer cancel()
	deadline := time.After(120 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("job %s did not reach a terminal state (now %+v)", j.id, j.Status())
		case ev, ok := <-ch:
			if !ok {
				return j.Status().State
			}
			if ev.Type == "state" &&
				(ev.State == StateDone || ev.State == StateFailed || ev.State == StateInterrupted) {
				return ev.State
			}
		}
	}
}

func TestRequestCanonicalization(t *testing.T) {
	a := Request{Workloads: []string{"pr.25", "bt.C", "bt.C"}}
	b := Request{Workloads: []string{"bt.C", "pr.25"}}
	if err := a.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Errorf("permuted/deduped workload sets hash differently: %s vs %s", a.ID(), b.ID())
	}
	if a.CacheMB != 8 || a.RequestsPerCore != 4000 || a.WarmupPerCore != 500 {
		t.Errorf("defaults not applied: %+v", a)
	}

	var def Request
	if err := def.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) == 0 {
		t.Error("empty request did not select the representative workloads")
	}

	for _, bad := range []Request{
		{Workloads: []string{"no-such-workload"}},
		{CacheMB: maxCacheMB + 1},
		{RequestsPerCore: maxRequestsPerCore + 1},
		{WarmupPerCore: -1},
		{FaultRate: 1.5},
	} {
		r := bad
		if err := r.Canonicalize(); err == nil {
			t.Errorf("request %+v canonicalized without error", bad)
		}
	}
}

func TestStoreCrashSafetyAndCorruption(t *testing.T) {
	st, err := OpenStore(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"hello":"world"}`)
	if err := st.PutResult("job1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := st.GetResult("job1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got %q ok=%v", got, ok)
	}

	path := filepath.Join(st.Dir(), "job1.res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped payload byte must read as a miss, not as data.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-3] ^= 0xff
	os.WriteFile(path, corrupt, 0o644)
	if _, ok := st.GetResult("job1"); ok {
		t.Error("corrupted entry was served")
	}

	// Truncation (torn write survived a crash) is also a miss.
	os.WriteFile(path, raw[:len(raw)-4], 0o644)
	if _, ok := st.GetResult("job1"); ok {
		t.Error("truncated entry was served")
	}

	// A foreign file under the entry name is a miss.
	os.WriteFile(path, []byte("not a store entry"), 0o644)
	if _, ok := st.GetResult("job1"); ok {
		t.Error("foreign file was served")
	}

	// Checkpoint listing sees exactly the checkpoints.
	st.CreateCheckpoint("b", tinyRequest())
	st.CreateCheckpoint("a", tinyRequest())
	ids := st.Checkpoints()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("Checkpoints() = %v", ids)
	}
	st.DeleteCheckpoint("a")
	if ids := st.Checkpoints(); len(ids) != 1 || ids[0] != "b" {
		t.Errorf("after delete, Checkpoints() = %v", ids)
	}
}

func TestMemTierEntryFraming(t *testing.T) {
	e := newMemEntry("abc", "v9", []byte(`{"k":1}`))
	if e.etag != `"abc.v9"` {
		t.Errorf("etag = %s, want quoted id.version", e.etag)
	}
	if e.clen != "7" {
		t.Errorf("clen = %s, want 7", e.clen)
	}
}

// TestMemTierSingleflight: concurrent reads of a result that is on disk
// but not in memory share one disk read's entry, and the read after
// them is a memory hit.
func TestMemTierSingleflight(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	if err := s.Store().PutResult("id1", []byte(`{"k":1}`)); err != nil {
		t.Fatal(err)
	}
	const callers = 16
	entries := make([]*memEntry, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, tier, ok := s.lookupResult("id1")
			if !ok || (tier != "disk" && tier != "mem") {
				t.Errorf("caller %d: tier=%q ok=%v, want a disk or memory hit", i, tier, ok)
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("caller %d got a different entry instance", i)
		}
	}
	if _, tier, ok := s.lookupResult("id1"); !ok || tier != "mem" {
		t.Errorf("read after the disk read: tier=%q ok=%v, want a memory hit", tier, ok)
	}
}

// TestMemTierLoadMiss: an id stored in neither tier is a miss, and the
// miss is not kept.
func TestMemTierLoadMiss(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	if _, _, ok := s.lookupResult("nope"); ok {
		t.Error("miss reported as hit")
	}
	if got := s.tier.Len(); got != 0 {
		t.Errorf("miss left %d resident entries", got)
	}
}

func TestSlowSubscriberNeverBlocksPublisher(t *testing.T) {
	j := newJob("x", &Checkpoint{Request: tinyRequest()})
	ch, cancel := j.Subscribe()
	defer cancel()
	// Publish far past the subscriber's buffer without draining it: the
	// publisher must drop, not block (a slow SSE client cannot stall the
	// simulation). The test would time out if publish blocked.
	for i := 0; i < 10*cap(ch); i++ {
		j.cellDone("c", i)
	}
	j.setState(StateDone)
	n := 0
	for range ch { // closed by the terminal publish
		n++
	}
	if n == 0 || n > cap(ch) {
		t.Errorf("subscriber saw %d events, want 1..%d (drops, not blocking)", n, cap(ch))
	}
	// A post-terminal subscriber gets the state and an immediate close.
	ch2, cancel2 := j.Subscribe()
	defer cancel2()
	ev, ok := <-ch2
	if !ok || ev.State != StateDone {
		t.Fatalf("late subscriber first event = %+v ok=%v", ev, ok)
	}
	if _, ok := <-ch2; ok {
		t.Error("late subscriber channel not closed after terminal state")
	}
}

func TestServeCacheHitIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(tinyRequest())
	resp1, err := http.Post(ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := readAll(t, resp1)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d %s", resp1.StatusCode, first)
	}

	// Second submission with a permuted-but-equal body: served from the
	// store, byte-identical, without a simulator run.
	resp2, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	second, _ := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: %d %s", resp2.StatusCode, second)
	}
	if tier := resp2.Header.Get("Tdserve-Cache"); tier != "mem" && tier != "disk" {
		t.Errorf("second submit not served from a cache tier (Tdserve-Cache=%q)", tier)
	}
	if resp2.Header.Get("ETag") == "" {
		t.Error("cached result response carries no ETag")
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cache hit is not byte-identical:\n%s\nvs\n%s", first, second)
	}

	var doc ResultDoc
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("result does not parse: %v", err)
	}
	if len(doc.Cells) != tinyRequestCells(t) {
		t.Errorf("result has %d cells, want %d", len(doc.Cells), tinyRequestCells(t))
	}
	for _, c := range doc.Cells {
		if c.Accesses == 0 {
			t.Errorf("cell %s/%s reports zero accesses", c.Workload, c.Design)
		}
	}
}

// TestMetriczOverHTTP fetches /metricz after a miss and a memory hit
// and checks the snapshot a client sees: JSON, and the serving-tier
// counters, gauges and per-endpoint latency histograms the requests
// moved.
func TestMetriczOverHTTP(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(tinyRequest())
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, b)
		}
	}

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("/metricz: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var snap []service.Metric
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("/metricz does not parse: %v\n%s", err, b)
	}
	got := map[string]service.Metric{}
	for _, m := range snap {
		got[m.Name] = m
	}
	// The waited miss is answered from the memory tier it wrote through,
	// so both submissions count a memory hit.
	for name, want := range map[string]float64{
		"serve.misses":        1,
		"serve.hits_mem":      2,
		"serve.jobs_admitted": 1,
		"serve.jobs_done":     1,
		"serve.cells_done":    float64(tinyRequestCells(t)),
		"serve.tokens_total":  float64(s.Budget().Total()),
	} {
		if m, ok := got[name]; !ok || m.Value != want {
			t.Errorf("%s = %+v, want value %g", name, m, want)
		}
	}
	if h := got["http.submit"]; h.Kind != "hist" || h.Count != 2 || h.P50NS <= 0 {
		t.Errorf("http.submit = %+v, want a histogram of the 2 submissions", h)
	}
}

func tinyRequestCells(t *testing.T) int {
	t.Helper()
	r := tinyRequest()
	if err := r.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return r.Cells()
}

func TestResumeFromCheckpointByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	req := slowRequest()
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	id := req.ID()

	// Reference: one uninterrupted run in its own store.
	refDir := t.TempDir()
	ref := newTestServer(t, refDir, nil)
	j, err := ref.Admit(id, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("reference job ended %s: %+v", st, j.Status())
	}
	want, ok := ref.Store().GetResult(id)
	if !ok {
		t.Fatal("reference result missing from store")
	}

	// Interrupted run: serial cells, shut the server down right after
	// the first cell completes. With six more cells pending, the cancel
	// lands mid-job deterministically.
	dir := t.TempDir()
	s1, err := NewServer(Config{Dir: dir, Version: "test", SimTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s1.Admit(id, req)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelSub := j1.Subscribe()
	gotCell := false
	deadline := time.After(120 * time.Second)
wait:
	for {
		select {
		case <-deadline:
			t.Fatalf("no cell completed: %+v", j1.Status())
		case ev := <-ch:
			if ev.Type == "cell" {
				gotCell = true
				break wait
			}
		}
	}
	cancelSub()
	if !gotCell {
		t.Fatal("subscription closed before any cell event")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if st := j1.Status().State; st != StateInterrupted {
		t.Fatalf("interrupted job state = %s, want %s", st, StateInterrupted)
	}
	if _, err := s1.Store().OpenCheckpoint(id); err != nil {
		t.Fatalf("interrupted job left no checkpoint: %v", err)
	}

	// Restart over the same directory: recovery must re-queue the job
	// and finish it from the checkpoint, not from tick 0.
	s2 := newTestServer(t, dir, nil)
	j2, ok := s2.Job(id)
	if !ok {
		t.Fatal("restarted server did not recover the interrupted job")
	}
	if j2.Status().Done == 0 {
		t.Error("recovered job lost its checkpointed progress")
	}
	if st := waitTerminal(t, j2); st != StateDone {
		t.Fatalf("recovered job ended %s: %+v", st, j2.Status())
	}
	got, ok := s2.Store().GetResult(id)
	if !ok {
		t.Fatal("recovered job produced no result")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if _, err := s2.Store().OpenCheckpoint(id); err == nil {
		t.Error("checkpoint not cleaned up after completion")
	}
}

func TestQueueSaturationRejectsWith429(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// Hold the worker on its current job until released, so the
	// saturation window is deterministic instead of a race against the
	// simulator's speed. Released jobs run the real sweep.
	release := make(chan struct{})
	started := make(chan string, 8)
	real := runMatrix
	runMatrix = func(sc experiments.Scale, opts experiments.MatrixOptions) (*experiments.Matrix, error) {
		started <- sc.Name
		select {
		case <-release:
		case <-opts.Context.Done():
		}
		return real(sc, opts)
	}
	defer func() { runMatrix = real }()

	// One worker so "the worker is held" saturates the whole pool.
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.QueueDepth = 1; c.Workers = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(r Request) *http.Response {
		body, _ := json.Marshal(r)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Job A occupies the worker...
	ra := tinyRequest()
	respA, _ := readAll(t, submit(ra))
	var ackA submitAck
	json.Unmarshal(respA, &ackA)
	jA, ok := s.Job(ackA.ID)
	if !ok {
		t.Fatalf("job A not admitted: %s", respA)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job A never reached the worker")
	}

	// ...job B fills the depth-1 queue...
	rb := tinyRequest()
	rb.RequestsPerCore = 60 // distinct content address
	respB := submit(rb)
	if respB.StatusCode != http.StatusAccepted {
		b, _ := readAll(t, respB)
		t.Fatalf("job B: %d %s", respB.StatusCode, b)
	}
	readAll(t, respB)

	// ...so job C must bounce with explicit backpressure.
	rc := tinyRequest()
	rc.RequestsPerCore = 70
	respC := submit(rc)
	bodyC, _ := readAll(t, respC)
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: %d %s, want 429", respC.StatusCode, bodyC)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Accepted jobs are checkpointed before acknowledgement: even the
	// still-queued B survives a crash. C left nothing behind.
	rb2 := rb
	rb2.Canonicalize()
	if _, err := s.Store().OpenCheckpoint(rb2.ID()); err != nil {
		t.Errorf("queued job B has no checkpoint: %v", err)
	}
	rc2 := rc
	rc2.Canonicalize()
	if _, err := s.Store().OpenCheckpoint(rc2.ID()); err == nil {
		t.Error("rejected job C left a checkpoint")
	}

	// Release the worker: the queue drains and both admitted jobs
	// complete for real.
	close(release)
	if st := waitTerminal(t, jA); st != StateDone {
		t.Fatalf("job A ended %s", st)
	}
	jB, ok := s.Job(rb2.ID())
	if !ok {
		t.Fatal("job B vanished")
	}
	if st := waitTerminal(t, jB); st != StateDone {
		t.Fatalf("job B ended %s", st)
	}
}

func TestCorruptResultIsMissAndRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := tinyRequest()
	req.Canonicalize()
	id := req.ID()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, want)
	}

	// Corrupt the stored result in place.
	path := filepath.Join(s.Store().Dir(), id+".res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	// s's memory tier holds the write-through entry and would (correctly
	// — the bytes are immutable by determinism) keep serving it after
	// on-disk corruption. The tier is per process, so a second server
	// over the same store reads the disk copy.
	s2 := newTestServer(t, dir, nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// Reads degrade to a miss — 404, never a 500.
	st, err := http.Get(ts2.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := readAll(t, st)
	if st.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt result read: %d %s, want 404", st.StatusCode, b)
	}

	// Re-submission re-simulates and reproduces the identical document.
	resp2, err := http.Post(ts2.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-submit: %d %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recomputed result differs from the original:\n%s\nvs\n%s", got, want)
	}
}

func TestJobDeadlineFailsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := newTestServer(t, t.TempDir(), func(c *Config) {
		c.SimTokens = 1
		c.JobDeadline = time.Millisecond
	})
	req := tinyRequest()
	req.Canonicalize()
	j, err := s.Admit(req.ID(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != StateFailed {
		t.Fatalf("deadline job ended %s: %+v", st, j.Status())
	}
	if msg := j.Status().Error; !strings.Contains(msg, "deadline exceeded") {
		t.Errorf("failure does not name the deadline: %q", msg)
	}
	if _, err := s.Store().OpenCheckpoint(req.ID()); err == nil {
		t.Error("failed job left a checkpoint behind")
	}
}

// TestConcurrentSubmitRunsOneSimulation pins the collapse property end
// to end: N clients racing to submit one configuration cause exactly one
// simulation, and every client reads byte-identical result documents.
func TestConcurrentSubmitRunsOneSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var sims atomic.Int64
	real := runMatrix
	runMatrix = func(sc experiments.Scale, opts experiments.MatrixOptions) (*experiments.Matrix, error) {
		sims.Add(1)
		return real(sc, opts)
	}
	defer func() { runMatrix = real }()

	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(tinyRequest())
	const clients = 12
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			b, _ := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %d %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	if got := sims.Load(); got != 1 {
		t.Errorf("%d concurrent submissions ran %d simulations, want 1", clients, got)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d response differs from client 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// TestResultServedFromMemoryAfterDiskLoss: once a result is resident in
// the memory tier, repeat reads are served from memory — the disk file
// can vanish entirely and the hit path never notices. Also pins the
// If-None-Match → 304 revalidation contract.
func TestResultServedFromMemoryAfterDiskLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := tinyRequest()
	req.Canonicalize()
	id := req.ID()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, want)
	}

	// The write-through put the result in memory; remove the disk copy.
	if err := os.Remove(filepath.Join(s.Store().Dir(), id+".res")); err != nil {
		t.Fatal(err)
	}

	get, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, get)
	if get.StatusCode != http.StatusOK {
		t.Fatalf("read after disk loss: %d %s", get.StatusCode, got)
	}
	if tier := get.Header.Get("Tdserve-Cache"); tier != "mem" {
		t.Errorf("Tdserve-Cache = %q, want mem", tier)
	}
	if !bytes.Equal(got, want) {
		t.Error("memory-tier read is not byte-identical to the original response")
	}
	if cl := get.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length = %q, want %d", cl, len(want))
	}
	etag := get.Header.Get("ETag")
	if etag == "" {
		t.Fatal("result response carries no ETag")
	}

	// Revalidation: matching If-None-Match short-circuits to a bodyless 304.
	reval, err := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+id+"/result", nil)
	if err != nil {
		t.Fatal(err)
	}
	reval.Header.Set("If-None-Match", etag)
	r304, err := http.DefaultClient.Do(reval)
	if err != nil {
		t.Fatal(err)
	}
	b304, _ := readAll(t, r304)
	if r304.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: %d %s, want 304", r304.StatusCode, b304)
	}
	if len(b304) != 0 {
		t.Errorf("304 carried a %d-byte body", len(b304))
	}
}

// TestMultiWorkerMatchesSingleWorker pins the throughput tier's
// determinism criterion: a pool of workers racing several jobs through
// a shared token budget stores results byte-identical to a one-worker,
// one-token server given the same configurations.
func TestMultiWorkerMatchesSingleWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	reqs := make([]Request, 3)
	for i := range reqs {
		reqs[i] = tinyRequest()
		reqs[i].RequestsPerCore = 50 + 10*i // distinct content addresses
		if err := reqs[i].Canonicalize(); err != nil {
			t.Fatal(err)
		}
	}

	run := func(mutate func(*Config)) map[string][]byte {
		s := newTestServer(t, t.TempDir(), mutate)
		jobs := make([]*Job, len(reqs))
		for i, r := range reqs {
			j, err := s.Admit(r.ID(), r)
			if err != nil {
				t.Fatalf("admit %s: %v", r.ID(), err)
			}
			jobs[i] = j
		}
		out := make(map[string][]byte)
		for i, j := range jobs {
			if st := waitTerminal(t, j); st != StateDone {
				t.Fatalf("job %s ended %s", j.id, st)
			}
			b, ok := s.Store().GetResult(reqs[i].ID())
			if !ok {
				t.Fatalf("job %s has no stored result", j.id)
			}
			out[reqs[i].ID()] = b
		}
		return out
	}

	serial := run(func(c *Config) { c.Workers = 1; c.SimTokens = 1 })
	pooled := run(func(c *Config) { c.Workers = 3; c.SimTokens = 2 })
	for id, want := range serial {
		if got := pooled[id]; !bytes.Equal(got, want) {
			t.Errorf("job %s: pooled result differs from serial:\n%s\nvs\n%s", id, got, want)
		}
	}
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	ch, cancel := j.Subscribe()
	defer cancel()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("job %s never reached %s: %+v", j.id, want, j.Status())
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("job %s terminal before %s: %+v", j.id, want, j.Status())
			}
			if ev.Type == "state" && ev.State == want {
				return
			}
		}
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, error) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestDoneJobIsForgotten: a finished job leaves the server's job table,
// so the table and the 429 backlog walk do not grow with every
// configuration served, and its status, result and event stream then
// answer from the store.
func TestDoneJobIsForgotten(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := newTestServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := tinyRequest()
	req.Canonicalize()
	id := req.ID()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, want)
	}
	if _, ok := s.Job(id); ok {
		t.Error("done job is still in the job table")
	}
	if n := s.queuedCells(); n != 0 {
		t.Errorf("queued cells = %d with no job in play", n)
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := readAll(t, r)
		return r, b
	}
	if r, b := get("/jobs/" + id); r.StatusCode != http.StatusOK || !strings.Contains(string(b), `"state":"done"`) {
		t.Errorf("status: %d %s, want 200 done", r.StatusCode, b)
	}
	if r, b := get("/jobs/" + id + "/result"); r.StatusCode != http.StatusOK || !bytes.Equal(b, want) {
		t.Errorf("result: %d, byte-identical %v", r.StatusCode, bytes.Equal(b, want))
	}
	r, b := get("/jobs/" + id + "/events")
	if r.StatusCode != http.StatusOK || r.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events: %d %q", r.StatusCode, r.Header.Get("Content-Type"))
	}
	if got, wantEv := string(b), "data: {\"type\":\"state\",\"state\":\"done\"}\n\n"; got != wantEv {
		t.Errorf("events stream = %q, want the one terminal state %q", got, wantEv)
	}
	if r, _ := get("/jobs/0123456789abcdef0123456789abcdef/events"); r.StatusCode != http.StatusNotFound {
		t.Errorf("events for an unknown job: %d, want 404", r.StatusCode)
	}
}

// TestImageCacheResultsByteIdentical: a job that forks from the warmup
// image an earlier job left in the server's image cache stores the
// document a server without the cache stores.
func TestImageCacheResultsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	first, second := tinyRequest(), tinyRequest()
	second.RequestsPerCore = 60 // a new content address with the same image key
	for _, r := range []*Request{&first, &second} {
		if err := r.Canonicalize(); err != nil {
			t.Fatal(err)
		}
	}
	run := func(s *Server, req Request) []byte {
		t.Helper()
		j, err := s.Admit(req.ID(), req)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st != StateDone {
			t.Fatalf("job ended %s: %+v", st, j.Status())
		}
		b, ok := s.Store().GetResult(req.ID())
		if !ok {
			t.Fatal("no stored result")
		}
		return b
	}

	cached := newTestServer(t, t.TempDir(), nil)
	run(cached, first)
	got := run(cached, second)
	if n := cached.images.Len(); n != 1 {
		t.Fatalf("image cache holds %d images after two jobs of one image key, want 1", n)
	}

	real := runMatrix
	runMatrix = func(sc experiments.Scale, opts experiments.MatrixOptions) (*experiments.Matrix, error) {
		opts.Images = nil
		return real(sc, opts)
	}
	defer func() { runMatrix = real }()
	want := run(newTestServer(t, t.TempDir(), nil), second)
	if !bytes.Equal(got, want) {
		t.Errorf("result forked from a cached image differs from one without the cache:\n%s\nvs\n%s", got, want)
	}
}
