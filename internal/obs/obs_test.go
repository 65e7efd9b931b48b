package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tdram/internal/mem"
	"tdram/internal/sim"
)

// chromeEvent mirrors the trace-event JSON fields the exporter writes,
// for round-trip checking.
type chromeEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Name string  `json:"name"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	S    string  `json:"s"`
	Args map[string]any
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.TraceEnabled() || o.MetricsEnabled() {
		t.Error("nil observer claims to be enabled")
	}
	tr := o.Track("p", "t")
	if tr != 0 {
		t.Errorf("nil Track = %d", tr)
	}
	o.Slice(tr, "x", 0, 10)
	o.Instant(tr, "x", 0)
	o.CounterInt(tr, 0, 1)
	o.Inc("c")
	o.Count("c", 3)
	o.Gauge("g", func() float64 { return 0 })
	if cs := o.Counters(); cs != nil {
		t.Errorf("nil Counters = %v", cs)
	}
	if o.JourneysEnabled() || o.FlightEnabled() {
		t.Error("nil observer claims journeys/flight enabled")
	}
	if j := o.StartJourney(0, 0, false); j != nil {
		t.Errorf("nil StartJourney = %v", j)
	}
	o.FinishJourney(nil, 0)
	o.AbandonJourney(nil)
	o.ResetJourneys()
	if n := o.JourneyClassCount(mem.ClassReadHit); n != 0 {
		t.Errorf("nil JourneyClassCount = %d", n)
	}
	if h := o.JourneyClassHist(mem.ClassReadHit); h != nil {
		t.Errorf("nil JourneyClassHist = %v", h)
	}
	if d := o.JourneyPhaseSum(mem.ClassReadHit, mem.PhaseTagCheck); d != 0 {
		t.Errorf("nil JourneyPhaseSum = %v", d)
	}
	o.FlightCommand("u", "Rd", 0, 0, 0)
	o.FlightSnapshot("r")
	if d := o.FlightDepth(); d != 0 {
		t.Errorf("nil FlightDepth = %d", d)
	}
	if s := o.FlightDump(); s != "" {
		t.Errorf("nil FlightDump = %q", s)
	}
	if ss := o.FlightSnapshots(); ss != nil {
		t.Errorf("nil FlightSnapshots = %v", ss)
	}
	if n := o.SamplesDropped(); n != 0 {
		t.Errorf("nil SamplesDropped = %d", n)
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("nil-observer trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) != 0 {
		t.Errorf("nil-observer trace has %d events", len(ct.TraceEvents))
	}
}

func TestPerfettoRoundTrip(t *testing.T) {
	s := sim.New()
	o := New(s, Config{Trace: true})
	ca := o.Track("dev.ch0", "ca")
	dq := o.Track("dev.ch0", "dq")
	ev := o.Track("ctl.ch0", "events")
	if ca == dq || ca == 0 || ev == 0 {
		t.Fatalf("track ids: ca=%d dq=%d ev=%d", ca, dq, ev)
	}
	if again := o.Track("dev.ch0", "ca"); again != ca {
		t.Errorf("re-registering returned %d, want %d", again, ca)
	}

	o.Slice(ca, "ActRd", 1500, 2500) // 1.5ns..2.5ns
	o.Slice(dq, "ActRd", 31_500_000, 33_000_000)
	o.Instant(ev, "HM-result read-hit", 16_000_000)
	o.CounterInt(ev, 0, 3)
	o.CounterInt(ev, 1000, 3) // deduped
	o.CounterInt(ev, 2000, 5)

	if n, dropped := o.TraceEvents(); n != 5 || dropped != 0 {
		t.Fatalf("TraceEvents = %d recorded, %d dropped; want 5, 0", n, dropped)
	}

	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}

	byPhase := map[string][]chromeEvent{}
	for _, e := range ct.TraceEvents {
		byPhase[e.Ph] = append(byPhase[e.Ph], e)
	}
	// Metadata: 2 process names + 3 thread names.
	if got := len(byPhase["M"]); got != 5 {
		t.Errorf("metadata events = %d, want 5", got)
	}
	if got := len(byPhase["X"]); got != 2 {
		t.Errorf("slices = %d, want 2", got)
	}
	if got := len(byPhase["i"]); got != 1 {
		t.Errorf("instants = %d, want 1", got)
	}
	if got := len(byPhase["C"]); got != 2 {
		t.Errorf("counter events = %d, want 2 (dedup)", got)
	}

	sl := byPhase["X"][0]
	if sl.Name != "ActRd" || sl.Ts != 0.0015 || sl.Dur != 0.001 {
		t.Errorf("slice round-trip: name=%q ts=%v dur=%v", sl.Name, sl.Ts, sl.Dur)
	}
	in := byPhase["i"][0]
	if in.Name != "HM-result read-hit" || in.Ts != 16 {
		t.Errorf("instant round-trip: name=%q ts=%v", in.Name, in.Ts)
	}
	if v := byPhase["C"][1].Args["value"]; v != 5.0 {
		t.Errorf("counter value = %v, want 5", v)
	}
	// Slices on different processes carry different pids.
	if byPhase["X"][0].Pid == byPhase["i"][0].Pid {
		t.Error("distinct processes share a pid")
	}
}

func TestTraceBufferCap(t *testing.T) {
	s := sim.New()
	o := New(s, Config{Trace: true, MaxTraceEvents: 3})
	tr := o.Track("p", "t")
	for i := 0; i < 10; i++ {
		o.Instant(tr, "e", sim.Tick(i))
	}
	n, dropped := o.TraceEvents()
	if n != 3 || dropped != 7 {
		t.Errorf("recorded=%d dropped=%d, want 3, 7", n, dropped)
	}
}

func TestCounters(t *testing.T) {
	s := sim.New()
	o := New(s, Config{Trace: true})
	o.Inc("b")
	o.Inc("a")
	o.Count("b", 4)
	cs := o.Counters()
	if len(cs) != 2 || cs[0].Name != "a" || cs[0].Value != 1 || cs[1].Name != "b" || cs[1].Value != 5 {
		t.Errorf("Counters = %v", cs)
	}
}

// runSampled builds an observer with a sampler, registers gauges, and
// runs the simulation for the given span of simulated time.
func runSampled(t *testing.T, interval, span sim.Tick, gauges map[string]func() float64) *Observer {
	t.Helper()
	s := sim.New()
	o := New(s, Config{MetricsInterval: interval})
	for name, fn := range gauges {
		o.Gauge(name, fn)
	}
	s.Run(span)
	return o
}

func TestSamplerSeries(t *testing.T) {
	v := 0.0
	o := runSampled(t, 1000, 5500, map[string]func() float64{
		"ramp": func() float64 { v += 1; return v },
	})
	if o.Samples() != 5 {
		t.Fatalf("samples = %d, want 5", o.Samples())
	}
	got := o.MetricSeries("ramp")
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
	if o.MetricSeries("missing") != nil {
		t.Error("unknown series is non-nil")
	}
	names := o.MetricNames()
	// Kernel gauges register first, then ours.
	if len(names) != 3 || names[2] != "ramp" {
		t.Errorf("names = %v", names)
	}
}

// TestDetachKeepsOutputs: a detached observer drops its links into the
// model — the simulator and the gauge closures — and keeps every output
// it recorded.
func TestDetachKeepsOutputs(t *testing.T) {
	v := 0.0
	o := runSampled(t, 1000, 3500, map[string]func() float64{
		"ramp": func() float64 { v += 1; return v },
	})
	o.Detach()
	if o.sim != nil || o.sampler.sim != nil || o.sampler.fns != nil {
		t.Error("detached observer still reaches the simulation")
	}
	if o.Now() != 0 {
		t.Errorf("Now after Detach = %v, want 0", o.Now())
	}
	if got := o.MetricSeries("ramp"); len(got) != 3 || got[2] != 3 {
		t.Errorf("series after Detach = %v, want [1 2 3]", got)
	}
	var nilObs *Observer
	nilObs.Detach()
}

func TestMetricsCSVRoundTrip(t *testing.T) {
	v := 0.0
	o := runSampled(t, 1000, 3500, map[string]func() float64{
		"x": func() float64 { v += 0.5; return v },
	})
	var buf bytes.Buffer
	if err := o.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	if lines[0] != "time_ns,kernel.pending_events,kernel.events_fired,x" {
		t.Errorf("header = %q", lines[0])
	}
	row := strings.Split(lines[2], ",")
	if row[0] != "2.000" || row[len(row)-1] != "1" {
		t.Errorf("second row = %v", row)
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	v := 0.0
	o := runSampled(t, 2000, 6500, map[string]func() float64{
		"q": func() float64 { v += 2; return v },
	})
	var buf bytes.Buffer
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		IntervalNS float64              `json:"interval_ns"`
		TimeNS     []float64            `json:"time_ns"`
		Series     map[string][]float64 `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, buf.String())
	}
	if got.IntervalNS != 2 {
		t.Errorf("interval_ns = %v", got.IntervalNS)
	}
	if len(got.TimeNS) != 3 || got.TimeNS[1] != 4 {
		t.Errorf("time_ns = %v", got.TimeNS)
	}
	if q := got.Series["q"]; len(q) != 3 || q[0] != 2 || q[2] != 6 {
		t.Errorf("series q = %v", got.Series["q"])
	}
}

func TestSamplerMaxSamples(t *testing.T) {
	s := sim.New()
	o := New(s, Config{MetricsInterval: 1000, MaxSamples: 4})
	s.Run(50_000)
	if o.Samples() != 4 {
		t.Errorf("samples = %d, want max 4", o.Samples())
	}
}

func TestJourneyLifecycle(t *testing.T) {
	s := sim.New()
	o := New(s, Config{Journeys: true})
	if !o.JourneysEnabled() || o.FlightEnabled() {
		t.Fatal("Journeys config should enable journeys only")
	}
	j := o.StartJourney(2, 0x40, false)
	if j == nil {
		t.Fatal("StartJourney = nil with journeys enabled")
	}
	if j.ID != 1 || j.Core != 2 || j.Line != 0x40 {
		t.Errorf("journey fields: %+v", j)
	}
	j.Exit(mem.PhaseCoreQueue, 10)
	j.Span(mem.PhaseTagCheck, 5)
	j.Note(mem.ReadHit)
	o.FinishJourney(j, 100)

	if n := o.JourneyClassCount(mem.ClassReadHit); n != 1 {
		t.Errorf("read-hit count = %d, want 1", n)
	}
	if h := o.JourneyClassHist(mem.ClassReadHit); h.N() != 1 || h.Max() != 100 {
		t.Errorf("read-hit hist n=%d max=%v", h.N(), h.Max())
	}
	if d := o.JourneyPhaseSum(mem.ClassReadHit, mem.PhaseTagCheck); d != 5 {
		t.Errorf("tag-check phase sum = %v, want 5", d)
	}

	// The pool recycles the finished ledger: the next start must reuse
	// the same allocation, fully reset.
	j2 := o.StartJourney(0, 0x80, true)
	if j2 != j {
		t.Error("finished journey was not recycled through the pool")
	}
	if j2.ID != 2 || !j2.Write || j2.Outcome != 0 || j2.Phases[mem.PhaseTagCheck] != 0 {
		t.Errorf("recycled journey not reset: %+v", j2)
	}
	o.AbandonJourney(j2)
	if n := o.JourneyClassCount(mem.ClassWrite); n != 0 {
		t.Errorf("abandoned journey was aggregated: count=%d", n)
	}

	o.ResetJourneys()
	if n := o.JourneyClassCount(mem.ClassReadHit); n != 0 {
		t.Errorf("count after reset = %d", n)
	}
	if h := o.JourneyClassHist(mem.ClassReadHit); h.N() != 0 {
		t.Errorf("hist after reset: n=%d", h.N())
	}
}

func TestFlightRecorderRings(t *testing.T) {
	s := sim.New()
	o := New(s, Config{FlightRecorder: 4})
	if !o.FlightEnabled() || !o.JourneysEnabled() {
		t.Fatal("FlightRecorder config should imply journeys")
	}
	if d := o.FlightDepth(); d != 4 {
		t.Fatalf("FlightDepth = %d, want 4", d)
	}
	for i := 0; i < 10; i++ {
		j := o.StartJourney(0, uint64(i), false)
		j.Note(mem.ReadHit)
		o.FinishJourney(j, sim.Tick(10*(i+1)))
	}
	for i := 0; i < 300; i++ {
		o.FlightCommand("dev.ch0", "ActRd", i%16, i, sim.Tick(i))
	}
	dump := o.FlightDump()
	if !strings.Contains(dump, "4/4 journeys (10 total)") {
		t.Errorf("journey ring header wrong:\n%s", dump)
	}
	if !strings.Contains(dump, "64/64 commands (300 total)") {
		t.Errorf("command ring header wrong:\n%s", dump)
	}
	// Oldest-first: the surviving journeys are ids 7..10.
	if !strings.Contains(dump, "id=7") || strings.Contains(dump, "id=6 ") {
		t.Errorf("ring retention wrong:\n%s", dump)
	}
	// Oldest surviving command is #236 (300-64).
	if !strings.Contains(dump, "row=236") || strings.Contains(dump, "row=235 ") {
		t.Errorf("command retention wrong:\n%s", dump)
	}

	for i := 0; i < 12; i++ {
		o.FlightSnapshot("reason")
	}
	snaps := o.FlightSnapshots()
	if len(snaps) != 8 {
		t.Fatalf("snapshots = %d, want capped at 8", len(snaps))
	}
	if !strings.Contains(snaps[0], "=== flight snapshot") || !strings.Contains(snaps[0], "reason") {
		t.Errorf("snapshot header: %q", snaps[0])
	}
	// Dropped snapshots surface inside later dumps.
	if !strings.Contains(o.FlightDump(), "4 earlier snapshots dropped") {
		t.Errorf("snapshot drop count missing:\n%s", o.FlightDump())
	}
}

func TestSamplerDroppedCounter(t *testing.T) {
	s := sim.New()
	o := New(s, Config{MetricsInterval: 1000, MaxSamples: 4})
	s.Run(50_000)
	if o.Samples() != 4 {
		t.Fatalf("samples = %d, want 4", o.Samples())
	}
	if o.SamplesDropped() == 0 {
		t.Error("over-budget sampling reported no drops")
	}
	// The synthetic counter surfaces the drops in Counters().
	found := false
	for _, c := range o.Counters() {
		if c.Name == "obs.samples_dropped" && c.Value == o.SamplesDropped() {
			found = true
		}
	}
	if !found {
		t.Errorf("obs.samples_dropped missing from Counters: %v", o.Counters())
	}
}

func TestSamplerMirrorsCountersIntoTrace(t *testing.T) {
	s := sim.New()
	o := New(s, Config{Trace: true, MetricsInterval: 1000})
	o.Gauge("depth", func() float64 { return 7 })
	s.Run(3500)
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"depth"`) {
		t.Errorf("trace lacks mirrored counter track:\n%s", buf.String())
	}
}
