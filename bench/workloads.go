package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdram/internal/dramcache"
	"tdram/internal/experiments"
	"tdram/internal/serve"
	"tdram/internal/sim"
	"tdram/internal/system"
	"tdram/internal/workload"
)

// params sizes the workloads. The smoke test shrinks them; everything
// else runs defaultParams.
type params struct {
	cellCacheBytes uint64
	cellWarmup     int
	hitReqs        int // measured requests per core in one cell-hit fork
	writebackReqs  int // the same for cell-writeback

	matrix experiments.Scale
	oracle func() ([]byte, error) // expected figure text for the matrix

	serveReq  serve.Request // the configuration hits ask for
	missEvery int           // every missEvery-th request asks for a fresh one
}

func defaultParams() params {
	return params{
		cellCacheBytes: 16 << 20,
		cellWarmup:     1000,
		// A fork's allocations per access depend on where in the address
		// stream the seed puts its window; windows this long keep that
		// within about 2 % between seeds, and still fit 3-6 forks in a run.
		hitReqs:       100000,
		writebackReqs: 40000,
		matrix:        experiments.Full(),
		oracle:        func() ([]byte, error) { return os.ReadFile("full_results.txt") },
		serveReq: serve.Request{Workloads: []string{"bt.C"}, CacheMB: 1,
			RequestsPerCore: 50, WarmupPerCore: 10},
		// One request in 10 asks for a fresh configuration: the mix
		// tdserve's load test and CI use (-miss-frac 0.1).
		missEvery: 10,
	}
}

// phase is what one measured stretch of a workload did, unit by unit: a
// fork for the cells, a second of requests for serve-mixed, the whole
// phase for the matrix.
type phase struct {
	elapsed   time.Duration
	ops       float64   // simulated accesses, or HTTP requests for serve-mixed
	rates     []float64 // ops per second of each unit
	latMS     []float64 // each unit's time for one user-visible operation
	attempted int
	failed    int
}

// rate and latency report the phase's best unit. The rest of a shared
// host can only slow a unit down, so the best unit is the nearest to
// what the code itself costs: over ten cell-hit runs the best fork's
// rate spread 6 % where the median fork's spread 14 %.
// Both read 0 when no unit finished (every fork failed).
func (ph phase) rate() float64 {
	if len(ph.rates) == 0 {
		return 0
	}
	return slices.Max(ph.rates)
}

func (ph phase) latency() float64 {
	if len(ph.latMS) == 0 {
		return 0
	}
	return slices.Min(ph.latMS)
}

// instance is a set-up workload ready to measure.
type instance interface {
	// measure runs the workload for about d; tr is nil outside the traced
	// phase.
	measure(d time.Duration, tr *tracer, parent int) (phase, error)
	// layers fills the workload's own per-layer values from its most
	// recent measure call.
	layers(m map[string]float64)
	// stream names the address stream the standalone microbenchmarks use.
	stream() (workload.Spec, uint64)
	close()
}

type workloadDef struct {
	name  string
	setup func(p *params, seed uint64) (instance, error)
}

var workloads = []workloadDef{
	{"matrix-full", setupMatrix},
	{"cell-hit", func(p *params, seed uint64) (instance, error) {
		return setupCell(p, "bfs.22", p.hitReqs, seed)
	}},
	{"cell-writeback", func(p *params, seed uint64) (instance, error) {
		return setupCell(p, "is.D", p.writebackReqs, seed)
	}},
	{"serve-mixed", setupServe},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// ---- matrix-full ----

// matrixInst sweeps the full-scale matrix, rows in a seed-chosen
// rotation, until its time is up, and checks every finished row against
// full_results.txt.
type matrixInst struct {
	sc     experiments.Scale // workloads in rotation order
	oracle map[string][]string
	next   int // first row of the next sweep

	last      *experiments.Matrix
	renderDur time.Duration
}

func setupMatrix(p *params, seed uint64) (instance, error) {
	text, err := p.oracle()
	if err != nil {
		return nil, err
	}
	oracle := figureRows(string(text))
	if len(oracle) == 0 {
		return nil, errors.New("matrix-full: the oracle holds no figure rows")
	}
	sc := p.matrix
	sc.Workloads = rotation(sc.Workloads, seed)
	return &matrixInst{sc: sc, oracle: oracle}, nil
}

// rotation orders the workloads low band, high band, low, high, ...,
// starting at a seed-chosen position, so every prefix of the sweep mixes
// the cheap and the expensive rows in the same proportion.
func rotation(all []workload.Spec, seed uint64) []workload.Spec {
	var low, high []workload.Spec
	for _, s := range all {
		if s.Band == workload.HighMiss {
			high = append(high, s)
		} else {
			low = append(low, s)
		}
	}
	rot := func(s []workload.Spec) []workload.Spec {
		if len(s) == 0 {
			return s
		}
		k := int(seed % uint64(len(s)))
		return append(append([]workload.Spec{}, s[k:]...), s[:k]...)
	}
	low, high = rot(low), rot(high)
	out := make([]workload.Spec, 0, len(all))
	for i := 0; i < len(low) || i < len(high); i++ {
		if i < len(low) {
			out = append(out, low[i])
		}
		if i < len(high) {
			out = append(out, high[i])
		}
	}
	return out
}

func (m *matrixInst) measure(d time.Duration, tr *tracer, parent int) (phase, error) {
	var ph phase
	var cells int
	start := wallNow()
	deadline := start.Add(d)
	for first := true; first || wallSince(start) < d; first = false {
		rows := m.sc.Workloads
		sc := m.sc
		sc.Workloads = append(append([]workload.Spec{}, rows[m.next:]...), rows[:m.next]...)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		sp := tr.begin("sweep", 0, parent)
		mx, err := experiments.RunMatrixOpts(sc, experiments.MatrixOptions{Jobs: 2, Context: ctx})
		tr.end(sp)
		cancel()

		sp = tr.begin("render", 0, parent)
		t0 := wallNow()
		reports := experiments.AllFromMatrix(mx)
		var text strings.Builder
		for _, r := range reports {
			text.WriteString(r.String())
		}
		m.renderDur = wallSince(t0)
		tr.end(sp)

		// Cells the deadline cancelled are not failures: the sweep was
		// told to stop there.
		for _, e := range joinedErrors(err) {
			if !errors.Is(e, context.DeadlineExceeded) {
				ph.attempted++
				ph.failed++
			}
		}
		var accesses uint64
		for _, res := range mx.Results {
			ph.attempted++
			cells++
			accesses += res.Accesses
		}
		ph.ops += float64(accesses)
		n, bad := checkRows(m.oracle, text.String())
		ph.attempted += n
		ph.failed += bad
		n, bad = checkFidelity(mx, reports)
		ph.attempted += n
		ph.failed += bad
		m.next = (m.next + len(mx.CompleteWorkloads())) % len(rows)
		m.last = mx
	}
	ph.elapsed = wallSince(start)
	ph.rates = []float64{ph.ops / ph.elapsed.Seconds()}
	// The runner times no cell on its own: a sweep's user sees one
	// finished cell per this much wall time.
	ph.latMS = []float64{ms(ph.elapsed) / float64(cells)}
	return ph, nil
}

func joinedErrors(err error) []error {
	if err == nil {
		return nil
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

func (m *matrixInst) layers(out map[string]float64) {
	out["experiments.render_ms"] = ms(m.renderDur)
	// Simulated statistics of the TDRAM cells of the last sweep's
	// finished rows.
	var cells []*system.Result
	for _, wl := range m.last.CompleteWorkloads() {
		cells = append(cells, m.last.Get(dramcache.TDRAM, wl.Name))
	}
	cellLayers(out, cells)
}

func (m *matrixInst) stream() (workload.Spec, uint64) {
	return m.sc.Workloads[0], m.sc.CacheBytes
}

func (m *matrixInst) close() {}

// cellLayers fills the simulated per-layer values, averaged over cells.
func cellLayers(out map[string]float64, cells []*system.Result) {
	if len(cells) == 0 {
		return
	}
	var acc, act, rejects, stalls uint64
	var missRatio, tagCheck, readQ, mmReadQ, l2, runtimeUS float64
	for _, r := range cells {
		acc += r.Accesses
		act += r.CacheActivates
		rejects += r.Cache.QueueRejects
		stalls += r.Cache.FlushStalls
		missRatio += r.Cache.Outcomes.MissRatio()
		tagCheck += r.Cache.TagCheck.Value()
		readQ += r.Cache.ReadQueueing.Value()
		mmReadQ += r.MM.ReadQueueing.Value()
		l2 += r.L2MissRate
		runtimeUS += r.Runtime.Microseconds()
	}
	n := float64(len(cells))
	out["dram.activates_per_access"] = float64(act) / float64(acc)
	out["dramcache.queue_rejects_per_access"] = float64(rejects) / float64(acc)
	out["dramcache.flush_stalls"] = float64(stalls) / n
	out["dramcache.miss_ratio"] = missRatio / n
	out["dramcache.tag_check_ns"] = tagCheck / n
	out["dramcache.read_queueing_ns"] = readQ / n
	out["backing.read_queueing_ns"] = mmReadQ / n
	out["cache.l2_miss_rate"] = l2 / n
	out["system.sim_runtime_us"] = runtimeUS / n
}

// ---- cell-hit, cell-writeback ----

// cellInst forks one TDRAM cell from a shared warmup image, over and
// over, and checks that every fork produces the identical result.
type cellInst struct {
	cfg      system.Config
	img      *system.WarmupImage
	buildDur time.Duration

	first *system.Result
	fired uint64          // events of one fork
	forks []time.Duration // NewWithImage times of the last measure
	simNS float64         // host ns per fired event in the last measure
}

func setupCell(p *params, name string, reqs int, seed uint64) (instance, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg := system.DefaultConfig(dramcache.TDRAM, spec, p.cellCacheBytes)
	cfg.WarmupPerCore = p.cellWarmup
	cfg.RequestsPerCore = reqs
	cfg.Watchdog = 10 * sim.Millisecond
	cfg.Seed = seed
	t0 := wallNow()
	img, err := system.BuildWarmupImage(cfg)
	if err != nil {
		return nil, err
	}
	return &cellInst{cfg: cfg, img: img, buildDur: wallSince(t0)}, nil
}

func (c *cellInst) measure(d time.Duration, tr *tracer, parent int) (phase, error) {
	var ph phase
	var simDur time.Duration
	var fired uint64
	c.forks = c.forks[:0]
	start := wallNow()
	for ph.attempted == 0 || wallSince(start) < d {
		cell := tr.begin("cell", 0, parent)
		t0 := wallNow()
		sp := tr.begin("fork", 0, cell)
		sys, err := system.NewWithImage(c.cfg, c.img)
		tr.end(sp)
		if err != nil {
			return ph, err
		}
		c.forks = append(c.forks, wallSince(t0))
		sp = tr.begin("simulate", 0, cell)
		t1 := wallNow()
		res, err := sys.Run()
		simDur += wallSince(t1)
		tr.end(sp)
		tr.end(cell)
		took := wallSince(t0)
		ph.attempted++
		if err != nil || !c.check(res) {
			ph.failed++
			continue
		}
		c.fired = sys.Simulator().Fired()
		fired += c.fired
		ph.ops += float64(res.Accesses)
		ph.rates = append(ph.rates, float64(res.Accesses)/took.Seconds())
		ph.latMS = append(ph.latMS, ms(took))
	}
	ph.elapsed = wallSince(start)
	c.simNS = float64(simDur.Nanoseconds()) / float64(fired)
	return ph, nil
}

// check is the cells' oracle: the measured window covers exactly
// RequestsPerCore accesses per core, and every fork of one image
// reproduces the first fork's result.
func (c *cellInst) check(res *system.Result) bool {
	if res.Accesses != uint64(c.cfg.Cores*c.cfg.RequestsPerCore) {
		return false
	}
	if c.first == nil {
		c.first = res
		return true
	}
	return reflect.DeepEqual(c.first, res)
}

func (c *cellInst) layers(out map[string]float64) {
	if c.first == nil {
		return
	}
	out["sim.events_per_access"] = float64(c.fired) / float64(c.first.Accesses)
	out["sim.host_ns_per_event"] = c.simNS
	out["system.image_build_s"] = c.buildDur.Seconds()
	var forks []float64
	for _, f := range c.forks {
		forks = append(forks, ms(f))
	}
	out["system.fork_ms"] = median(forks)
	cellLayers(out, []*system.Result{c.first})
}

func (c *cellInst) stream() (workload.Spec, uint64) { return c.cfg.Workload, c.cfg.Cache.CapacityBytes }

func (c *cellInst) close() {}

// ---- serve-mixed ----

// serveClients is the closed loop's client count; each holds one
// keep-alive connection.
const serveClients = 2

// serveInst drives an in-process tdserve over loopback HTTP: a closed
// loop of clients re-asking for one stored configuration, with every
// missEvery-th request asking for a fresh one (a new fault_seed with
// fault injection off: a new content address at the same simulation
// cost).
type serveInst struct {
	p      *params
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	hit    []byte // request body of the stored configuration
	golden []byte // the first response to it
	faults atomic.Uint64

	hitLat, missLat []time.Duration // of the last measure
}

func setupServe(p *params, seed uint64) (instance, error) {
	dir, err := os.MkdirTemp("", "tdperf-serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &serveInst{p: p, dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}
	s.faults.Store(seed << 32)
	if s.hit, err = json.Marshal(p.serveReq); err != nil {
		s.close()
		return nil, err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	status, tier, body, err := post(cl, s.ts.URL, s.hit)
	if err == nil && (status != http.StatusOK || tier != "miss") {
		err = fmt.Errorf("first fill answered %d, Tdserve-Cache %q", status, tier)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("serve-mixed: %w", err)
	}
	s.golden = body
	return s, nil
}

func newClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func post(cl *http.Client, base string, body []byte) (status int, tier string, resp []byte, err error) {
	r, err := cl.Post(base+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("Tdserve-Cache"), resp, err
}

// missBody is a request for a configuration nobody asked for before.
func (s *serveInst) missBody() ([]byte, error) {
	req := s.p.serveReq
	req.FaultSeed = s.faults.Add(1)
	return json.Marshal(req)
}

type clientTally struct {
	attempted, failed int
	hit, miss         []time.Duration
	done, lat         []time.Duration // of every request: completion time from the phase start, latency
}

// serveUnit is the stretch serve-mixed's units cover: at about a
// thousand requests a second, each holds dozens of misses.
const serveUnit = time.Second

func (s *serveInst) measure(d time.Duration, tr *tracer, parent int) (phase, error) {
	start := wallNow()
	tallies := make([]clientTally, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c], errs[c] = s.client(c, start, d, tr, parent)
		}(c)
	}
	wg.Wait()
	ph := phase{elapsed: wallSince(start)}
	s.hitLat, s.missLat = s.hitLat[:0], s.missLat[:0]
	for _, t := range tallies {
		ph.attempted += t.attempted
		ph.failed += t.failed
		s.hitLat = append(s.hitLat, t.hit...)
		s.missLat = append(s.missLat, t.miss...)
	}
	ph.ops = float64(ph.attempted)
	ph.rates, ph.latMS = serveUnits(tallies, ph.elapsed)
	return ph, errors.Join(errs...)
}

// serveUnits cuts the requests into whole serveUnits by completion time.
// A unit's rate is its requests over the span from its first completion
// to its last, and its latency the median request. A phase shorter than
// one unit is one unit.
func serveUnits(tallies []clientTally, elapsed time.Duration) (rates, latMS []float64) {
	type unit struct {
		first, last time.Duration
		lat         []float64
	}
	whole := int(elapsed / serveUnit)
	units := make([]unit, max(1, whole))
	for _, t := range tallies {
		for i, at := range t.done {
			w := int(at / serveUnit)
			switch {
			case whole == 0:
				w = 0
			case w >= whole:
				continue // the partial unit at the end
			}
			u := &units[w]
			if len(u.lat) == 0 || at < u.first {
				u.first = at
			}
			u.last = max(u.last, at)
			u.lat = append(u.lat, ms(t.lat[i]))
		}
	}
	for _, u := range units {
		if len(u.lat) < 2 || u.last == u.first {
			continue
		}
		rates = append(rates, float64(len(u.lat)-1)/(u.last-u.first).Seconds())
		latMS = append(latMS, median(u.lat))
	}
	return rates, latMS
}

// client is one closed-loop client: it sends its next request when the
// previous one has been answered. Its oracle: hits come from the memory
// tier, byte-identical to the first response; misses are simulated.
func (s *serveInst) client(id int, start time.Time, d time.Duration, tr *tracer, parent int) (clientTally, error) {
	var t clientTally
	cl := newClient()
	defer cl.CloseIdleConnections()
	for i := 0; i == 0 || wallSince(start) < d; i++ {
		miss := i%s.p.missEvery == s.p.missEvery-1
		body, name := s.hit, "hit"
		if miss {
			var err error
			if body, err = s.missBody(); err != nil {
				return t, err
			}
			name = "miss"
		}
		sp := tr.begin(name, id+1, parent)
		t0 := wallNow()
		status, tier, resp, err := post(cl, s.ts.URL, body)
		lat := wallSince(t0)
		tr.end(sp)
		t.done, t.lat = append(t.done, wallSince(start)), append(t.lat, lat)
		t.attempted++
		ok := err == nil && status == http.StatusOK
		if miss {
			t.miss = append(t.miss, lat)
			ok = ok && tier == "miss"
		} else {
			t.hit = append(t.hit, lat)
			ok = ok && tier == "mem" && bytes.Equal(resp, s.golden)
		}
		if !ok {
			t.failed++
		}
	}
	return t, nil
}

func (s *serveInst) layers(out map[string]float64) {
	out["serve.hit_p50_us"] = us(percentile(s.hitLat, 0.50))
	out["serve.hit_p99_us"] = us(percentile(s.hitLat, 0.99))
	out["serve.miss_p50_ms"] = ms(percentile(s.missLat, 0.50))
	out["serve.miss_p90_ms"] = ms(percentile(s.missLat, 0.90))
	var memHits, lookups float64
	for _, r := range s.srv.Metrics().Snapshot() {
		switch r.Name {
		case "http.submit":
			out["serve.submit_p50_us"] = r.P50NS / 1e3
			out["serve.submit_p99_us"] = r.P99NS / 1e3
		case "serve.hits_mem":
			memHits = r.Value
			lookups += r.Value
		case "serve.hits_disk", "serve.misses":
			lookups += r.Value
		case "serve.jobs_rejected_429":
			out["serve.rejected_429"] = r.Value
		}
	}
	out["serve.transport_us"] = out["serve.hit_p50_us"] - out["serve.submit_p50_us"]
	if lookups > 0 {
		out["serve.mem_hit_ratio"] = memHits / lookups
	}
	out["serve.sim_ms_per_miss"], out["serve.store_put_ms"] = s.standalone()
}

// standalone times the two halves of a miss on their own: the matrix
// sweep of a fresh configuration, and the store write of a result.
func (s *serveInst) standalone() (simMS, putMS float64) {
	var sims, puts []float64
	for i := 0; i < 3; i++ {
		req := s.p.serveReq
		req.FaultSeed = s.faults.Add(1)
		if err := req.Canonicalize(); err != nil {
			return 0, 0
		}
		t0 := wallNow()
		if _, err := experiments.RunMatrixOpts(req.Scale(), experiments.MatrixOptions{Jobs: 2}); err != nil {
			return 0, 0
		}
		sims = append(sims, ms(wallSince(t0)))
	}
	dir, err := os.MkdirTemp("", "tdperf-store-")
	if err != nil {
		return median(sims), 0
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(dir, "bench")
	if err != nil {
		return median(sims), 0
	}
	for i := 0; i < 10; i++ {
		t0 := wallNow()
		if err := st.PutResult(fmt.Sprintf("r%02d", i), s.golden); err != nil {
			return median(sims), 0
		}
		puts = append(puts, ms(wallSince(t0)))
	}
	return median(sims), median(puts)
}

func (s *serveInst) stream() (workload.Spec, uint64) {
	spec, _ := workload.ByName(s.p.serveReq.Workloads[0]) // validated by the first fill
	return spec, uint64(s.p.serveReq.CacheMB) << 20
}

func (s *serveInst) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.srv.Close(ctx) // a store in a temp dir that is removed next
	os.RemoveAll(s.dir)
}

// ---- helpers ----

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// percentile is the nearest-rank percentile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration{}, ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
