package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tdram/internal/cache"
	"tdram/internal/dramcache"
	"tdram/internal/stats"
	"tdram/internal/workload"
)

// def declares a metric: its name, unit, and whether higher or lower is
// better. BENCHMARK.json declares the same, plus each end-to-end
// metric's bound; the smoke test keeps the two in step.
type def struct{ name, unit, better string }

var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_ms", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// profiled are the buckets a CPU profile's flat samples fold into: each
// tdram/internal package by name, then the Go runtime, the network and
// syscall stack, the rest of the standard library, and other (the
// benchmark's own code and anything unrecognised).
var profiled = []string{
	"sim", "dram", "dramcache", "backing", "cache", "workload", "system",
	"experiments", "serve", "stats", "mem", "energy", "obs",
	"runtime", "transport", "stdlib", "other",
}

var perLayer = func() []def {
	ds := []def{
		{"trace.overhead_pct", "%", "lower"},
		{"trace.named_pct", "%", "higher"},
		{"go.gc_cpu_pct", "%", "lower"},
		{"go.gc_cycles", "count", "lower"},
		{"sim.events_per_access", "count", "lower"},
		{"sim.host_ns_per_event", "ns", "lower"},
		{"dram.activates_per_access", "count", "lower"},
		{"dramcache.miss_ratio", "ratio", "lower"},
		{"dramcache.tag_check_ns", "ns", "lower"},
		{"dramcache.read_queueing_ns", "ns", "lower"},
		{"dramcache.queue_rejects_per_access", "count", "lower"},
		{"dramcache.flush_stalls", "count", "lower"},
		{"dramcache.prewarm_ns", "ns", "lower"},
		{"backing.read_queueing_ns", "ns", "lower"},
		{"cache.ns_per_access", "ns", "lower"},
		{"cache.l2_miss_rate", "ratio", "lower"},
		{"workload.ns_per_next", "ns", "lower"},
		{"system.image_build_s", "s", "lower"},
		{"system.fork_ms", "ms", "lower"},
		{"system.sim_runtime_us", "us", "lower"},
		{"experiments.parallel_efficiency", "ratio", "higher"},
		{"experiments.image_share_pct", "%", "lower"},
		{"experiments.render_ms", "ms", "lower"},
		{"serve.hit_p50_us", "us", "lower"},
		{"serve.hit_p99_us", "us", "lower"},
		{"serve.miss_p50_ms", "ms", "lower"},
		{"serve.miss_p90_ms", "ms", "lower"},
		{"serve.submit_p50_us", "us", "lower"},
		{"serve.submit_p99_us", "us", "lower"},
		{"serve.transport_us", "us", "lower"},
		{"serve.mem_hit_ratio", "ratio", "higher"},
		{"serve.sim_ms_per_miss", "ms", "lower"},
		{"serve.store_put_ms", "ms", "lower"},
		{"serve.rejected_429", "count", "lower"},
	}
	for _, b := range profiled {
		ds = append(ds, def{b + ".self_pct", "%", "lower"})
	}
	return ds
}()

// Set-up runs at least minSetups times and for at least setupFor, so a
// set-up of a millisecond is still timed over many repetitions; setup_s
// is the median.
const (
	minSetups = 5
	setupFor  = 500 * time.Millisecond
	maxSetups = 1000
)

// runWorkload sets the named workload up several times (setup_s is the
// median), then measures it for d. Untraced, it reports the end-to-end
// metrics. Traced, it measures d/2 untraced for the per-layer values the
// workload keeps itself, then d/2 under the CPU profiler and the span
// recorder, and reports the per-layer metrics.
func runWorkload(p params, name string, seed uint64, d time.Duration, trace bool) (result, error) {
	var setup func(*params, uint64) (instance, error)
	for _, w := range workloads {
		if w.name == name {
			setup = w.setup
		}
	}
	if setup == nil {
		return result{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
	}
	var tr *tracer
	if trace {
		tr = &tracer{t0: wallNow()}
	}
	root := tr.begin(name, 0, -1)
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupFor && i < maxSetups); i++ {
		if inst != nil {
			inst.close()
			runtime.GC() // the next set-up starts from a clean heap
		}
		sp := tr.begin("setup", 0, root)
		t0 := wallNow()
		in, err := setup(&p, seed)
		took := wallSince(t0)
		tr.end(sp)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, took.Seconds())
		spent += took
		inst = in
	}
	defer inst.close()
	runtime.GC()

	if !trace {
		ph, used, err := measured(inst, d, nil, root)
		if err != nil {
			return result{}, err
		}
		return finish(ph, map[string]float64{
			"setup_s":            median(setups),
			"ops_per_s":          ph.rate(),
			"latency_ms":         ph.latency(),
			"allocs_per_op":      float64(used.mallocs) / ph.ops,
			"alloc_bytes_per_op": float64(used.bytes) / ph.ops,
			"peak_rss_mb":        peakRSSMB(),
		}, endToEnd)
	}

	vals := make(map[string]float64)
	plain, used, err := measured(inst, d/2, nil, root)
	if err != nil {
		return result{}, err
	}
	inst.layers(vals)
	vals["go.gc_cpu_pct"] = used.gcPct()
	vals["go.gc_cycles"] = float64(used.gcCycles)
	vals["experiments.parallel_efficiency"] = used.cpu.Seconds() /
		(float64(runtime.GOMAXPROCS(0)) * plain.elapsed.Seconds())

	prof := filepath.Join(outDir(), fmt.Sprintf("cpu-%s-%d.pprof", name, seed))
	f, err := os.Create(prof)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return result{}, err
	}
	traced, _, err := measured(inst, d/2, tr, root)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	tr.end(root)
	if err := foldProfile(prof, vals); err != nil {
		return result{}, err
	}
	if traced.rate() > 0 {
		vals["trace.overhead_pct"] = (plain.rate()/traced.rate() - 1) * 100
	}
	spec, capacity := inst.stream()
	microbench(spec, capacity, seed, vals)
	if err := tr.write(filepath.Join(outDir(), fmt.Sprintf("trace-%s-%d.json", name, seed))); err != nil {
		return result{}, err
	}
	self := tr.selfTimes()
	for _, n := range stats.SortedKeys(self) {
		fmt.Fprintf(os.Stderr, "tdperf: %s span %s self %.1f ms\n", name, n, ms(self[n]))
	}
	plain.attempted += traced.attempted
	plain.failed += traced.failed
	return finish(plain, vals, perLayer)
}

// finish checks that vals holds exactly the declared metrics and wraps
// them into a result.
func finish(ph phase, vals map[string]float64, want []def) (result, error) {
	if ph.attempted == 0 {
		return result{}, fmt.Errorf("no operation finished within the run")
	}
	res := result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed,
		Metrics: make(map[string]metric, len(want))}
	for _, d := range want {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for k := range vals {
		if _, ok := res.Metrics[k]; !ok {
			return result{}, fmt.Errorf("metric %q is not declared", k)
		}
	}
	return res, nil
}

// usage is what the process spent during one measure call.
type usage struct {
	mallocs, bytes uint64
	cpu            time.Duration
	gcCPU, allCPU  float64 // runtime/metrics CPU-seconds
	gcCycles       uint32
}

func (u usage) gcPct() float64 {
	if u.allCPU <= 0 {
		return 0
	}
	return u.gcCPU / u.allCPU * 100
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
		u.allCPU = s[1].Value.Float64() - s[2].Value.Float64()
	}
	return u
}

// measured runs inst.measure and reports the process usage it caused.
func measured(inst instance, d time.Duration, tr *tracer, parent int) (phase, usage, error) {
	sp := tr.begin("run", 0, parent)
	before := readUsage()
	ph, err := inst.measure(d, tr, sp)
	after := readUsage()
	tr.end(sp)
	return ph, usage{
		mallocs:  after.mallocs - before.mallocs,
		bytes:    after.bytes - before.bytes,
		cpu:      after.cpu - before.cpu,
		gcCPU:    after.gcCPU - before.gcCPU,
		allCPU:   after.allCPU - before.allCPU,
		gcCycles: after.gcCycles - before.gcCycles,
	}, err
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats // no procfs: the Go heap's peak footprint is the nearest stand-in
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// foldProfile folds a CPU profile's flat self time into the profiled
// buckets with `go tool pprof -top`, and reads the cumulative share of
// warmup-image builds.
func foldProfile(path string, vals map[string]float64) error {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v", err)
	}
	self := make(map[string]float64)
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		self[bucket(fn)] += flat
		if fn == "tdram/internal/system.BuildWarmupImage" {
			vals["experiments.image_share_pct"] = cum
		}
	}
	for _, b := range profiled {
		vals[b+".self_pct"] = self[b]
	}
	vals["trace.named_pct"] = 0
	for _, b := range profiled {
		if b != "other" {
			vals["trace.named_pct"] += self[b]
		}
	}
	return nil
}

// bucket maps a profiled function name to its layer.
func bucket(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	} else {
		return "runtime" // assembly routines such as memeqbody carry no package
	}
	if rest, ok := strings.CutPrefix(pkg, "tdram/internal/"); ok {
		layer, _, _ := strings.Cut(rest, "/")
		for _, b := range profiled {
			if b == layer {
				return b
			}
		}
		return "other"
	}
	first, _, _ := strings.Cut(pkg, "/")
	switch {
	case strings.HasPrefix(pkg, "internal/poll") || strings.HasPrefix(pkg, "internal/syscall"):
		return "transport"
	case first == "runtime" || first == "sync" || first == "internal":
		return "runtime"
	case first == "net" || first == "syscall" || first == "bufio" || first == "vendor" ||
		strings.HasPrefix(pkg, "crypto/tls"):
		return "transport"
	case pkg == "main" || pkg == "tdram" || strings.Contains(first, "."):
		return "other"
	}
	return "stdlib"
}

// microbench times the SRAM hierarchy, the address stream and the
// DRAM-cache prewarmer on their own, over the workload's own stream.
func microbench(spec workload.Spec, capacity uint64, seed uint64, vals map[string]float64) {
	const n = 1 << 20
	st := spec.NewStream(0, 8, capacity, seed)
	lines := make([]uint64, n)
	stores := make([]bool, n)
	t0 := wallNow()
	for i := range lines {
		lines[i], stores[i], _ = st.Next()
	}
	vals["workload.ns_per_next"] = float64(wallSince(t0).Nanoseconds()) / n

	h := cache.NewSizedHierarchy(4<<10, 64<<10)
	var missed []uint64
	t0 = wallNow()
	for i, l := range lines {
		if r := h.Access(l, stores[i]); r.Missed {
			missed = append(missed, r.MissLine)
		}
	}
	vals["cache.ns_per_access"] = float64(wallSince(t0).Nanoseconds()) / n

	pw, err := dramcache.NewPrewarmer(capacity, 1)
	if err != nil || len(missed) == 0 {
		return
	}
	t0 = wallNow()
	for _, l := range missed {
		pw.Prewarm(l, false)
	}
	vals["dramcache.prewarm_ns"] = float64(wallSince(t0).Nanoseconds()) / float64(len(missed))
}

// tracer records spans from the benchmark's own code, in memory, for a
// Chrome trace written at exit. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	tid        int
	parent     int
	start, dur time.Duration
}

func (t *tracer) begin(name string, tid, parent int) int {
	if t == nil {
		return -1
	}
	at := wallSince(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, tid: tid, parent: parent, start: at})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	at := wallSince(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].dur = at - t.spans[i].start
}

// selfTimes totals, per span name, each span's duration minus the part
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		// Concurrent children (the serve clients) can cover more than
		// their parent's wall time; self time never goes below zero.
		if d := s.dur - child[i]; d > 0 {
			self[s.name] += d
		}
	}
	return self
}

// write stores the spans as Chrome trace JSON (complete events, µs).
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur), Pid: 1, Tid: s.tid}
	}
	b, err := json.Marshal(map[string][]event{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
