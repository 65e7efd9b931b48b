package system

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tdram/internal/dramcache"
	"tdram/internal/mem"
	"tdram/internal/obs"
	"tdram/internal/sim"
	"tdram/internal/workload"
)

// TestObservabilityDeterminism is the tracing-never-perturbs-timing
// guard: for every design, a run with full observability (tracing and
// metrics sampling) must produce bit-identical final statistics to a run
// without it. Hooks only read model state, and the sampler runs on
// daemon events that cannot reorder model events relative to each other.
func TestObservabilityDeterminism(t *testing.T) {
	wl, err := workload.ByName("ft.C")
	if err != nil {
		t.Fatal(err)
	}
	designs := append(dramcache.Designs(), dramcache.NoCache)
	for _, d := range designs {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			run := func(oc obs.Config) *Result {
				cfg := DefaultConfig(d, wl, 4<<20)
				cfg.RequestsPerCore = 400
				cfg.WarmupPerCore = 100
				cfg.Obs = oc
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := run(obs.Config{})
			observed := run(obs.Config{Trace: true, MetricsInterval: 500_000, Journeys: true, FlightRecorder: 64})

			if plain.Runtime != observed.Runtime {
				t.Errorf("runtime differs: %v without obs, %v with", plain.Runtime, observed.Runtime)
			}
			// Compare everything the run measures. The histograms live
			// behind pointers, so compare their contents and then the
			// remaining value fields.
			if !reflect.DeepEqual(*plain.Cache.TagCheckHist, *observed.Cache.TagCheckHist) {
				t.Error("tag-check histogram differs under observation")
			}
			if !reflect.DeepEqual(*plain.Cache.ReadLatencyHist, *observed.Cache.ReadLatencyHist) {
				t.Error("read-latency histogram differs under observation")
			}
			pc, oc2 := plain.Cache, observed.Cache
			pc.TagCheckHist, pc.ReadLatencyHist = nil, nil
			oc2.TagCheckHist, oc2.ReadLatencyHist = nil, nil
			if !reflect.DeepEqual(pc, oc2) {
				t.Errorf("cache stats differ under observation:\nwithout: %+v\nwith:    %+v", pc, oc2)
			}
			if !reflect.DeepEqual(plain.MM, observed.MM) {
				t.Errorf("backing-store stats differ under observation:\nwithout: %+v\nwith:    %+v", plain.MM, observed.MM)
			}
			if !reflect.DeepEqual(plain.Energy, observed.Energy) {
				t.Error("energy report differs under observation")
			}
		})
	}
}

// TestObserverOutputsPopulated sanity-checks that an observed run
// actually records something on every output.
func TestObserverOutputsPopulated(t *testing.T) {
	wl, err := workload.ByName("ft.C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(dramcache.TDRAM, wl, 4<<20)
	cfg.RequestsPerCore = 400
	cfg.WarmupPerCore = 100
	cfg.Obs = obs.Config{Trace: true, MetricsInterval: 500_000}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	o := sys.Observer()
	if o == nil {
		t.Fatal("observer not attached")
	}
	if n, _ := o.TraceEvents(); n == 0 {
		t.Error("no trace events recorded")
	}
	if o.Samples() == 0 {
		t.Error("no metric samples recorded")
	}
	found := map[string]bool{}
	for _, c := range o.Counters() {
		found[c.Name] = true
	}
	for _, want := range []string{"hbm3-cache.cmd.ActRd", "hbm3-cache.cmd.ActWr", "cache.flush.fill"} {
		if !found[want] {
			t.Errorf("counter %q missing (have %v)", want, found)
		}
	}
}

// TestJourneyAccountingMatchesOutcomes cross-checks the journey
// aggregates against the controller's own demand accounting: every
// measured-phase demand read must finish exactly one journey, and the
// read-hit class must agree with the outcome counters. Writes are
// posted — the controller counts them at accept while the journey
// finishes at the DQ data burst — so a handful of measured-phase writes
// may still sit in write queues when the run ends and never finish
// their journeys. Reads must match exactly; writes may only fall short,
// and only by a small in-flight window.
func TestJourneyAccountingMatchesOutcomes(t *testing.T) {
	wl, err := workload.ByName("ft.C")
	if err != nil {
		t.Fatal(err)
	}
	designs := append(dramcache.Designs(), dramcache.NoCache)
	for _, d := range designs {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(d, wl, 4<<20)
			cfg.RequestsPerCore = 400
			cfg.WarmupPerCore = 100
			cfg.Obs = obs.Config{Journeys: true}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			o := sys.Observer()
			var journeys, reads, writes uint64
			for c := 0; c < mem.NumJourneyClasses; c++ {
				n := o.JourneyClassCount(mem.JourneyClass(c))
				journeys += n
				switch mem.JourneyClass(c) {
				case mem.ClassWrite:
					writes += n
				case mem.ClassBypass, mem.ClassRetried:
					// Mixed read/write; counted in the total only.
				default:
					reads += n
				}
			}
			const writeSlack = 64 // posted writes still queued at run end
			demands := res.Cache.DemandReads + res.Cache.DemandWrites
			if journeys > demands || demands-journeys > writeSlack {
				t.Errorf("journeys=%d, demand reads+writes=%d", journeys, demands)
			}
			if d == dramcache.NoCache {
				return
			}
			if hits := res.Cache.Outcomes.Count(mem.ReadHit); o.JourneyClassCount(mem.ClassReadHit) != hits {
				t.Errorf("read-hit journeys=%d, read-hit outcomes=%d",
					o.JourneyClassCount(mem.ClassReadHit), hits)
			}
			if reads != res.Cache.DemandReads {
				t.Errorf("journey reads=%d, controller reads=%d", reads, res.Cache.DemandReads)
			}
			if writes > res.Cache.DemandWrites || res.Cache.DemandWrites-writes > writeSlack {
				t.Errorf("journey writes=%d, controller writes=%d", writes, res.Cache.DemandWrites)
			}
			// Every completed read carries end-to-end latency; the class
			// histogram totals must cover the controller's read count.
			var histN uint64
			for c := 0; c < mem.NumJourneyClasses; c++ {
				histN += o.JourneyClassHist(mem.JourneyClass(c)).N()
			}
			if histN != journeys {
				t.Errorf("histogram samples=%d, journeys=%d", histN, journeys)
			}
		})
	}
}

// TestJourneyAggregatesStopAtSnapshot pins the journey aggregates to the
// Result's window: posted writes still queued when the last core goes
// idle finish during the residual drain, after the snapshot, and must
// not reach the per-class counts, histograms or phase sums. The
// reference is the same system stopped at the snapshot, with no drain.
func TestJourneyAggregatesStopAtSnapshot(t *testing.T) {
	wl, err := workload.ByName("bt.C")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []dramcache.Design{dramcache.CascadeLake, dramcache.Alloy} {
		cfg := DefaultConfig(d, wl, 4<<20)
		cfg.RequestsPerCore = 400
		cfg.WarmupPerCore = 100
		cfg.Obs = obs.Config{Journeys: true}
		aggregates := func(o *obs.Observer) string {
			var b strings.Builder
			for c := 0; c < mem.NumJourneyClasses; c++ {
				jc := mem.JourneyClass(c)
				fmt.Fprintf(&b, "%v n=%d hist=%d/%v", jc, o.JourneyClassCount(jc),
					o.JourneyClassHist(jc).N(), o.JourneyClassHist(jc).MeanNS())
				for p := 0; p < mem.NumPhases; p++ {
					fmt.Fprintf(&b, " %v", o.JourneyPhaseSum(jc, mem.Phase(p)))
				}
				b.WriteByte('\n')
			}
			return b.String()
		}

		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.phase(cfg.WarmupPerCore); err != nil {
			t.Fatal(err)
		}
		ref.ctl.ResetStats()
		ref.obs.ResetJourneys()
		if err := ref.phase(cfg.RequestsPerCore); err != nil {
			t.Fatal(err)
		}
		if ref.ctl.Pending() == 0 {
			t.Fatalf("%v: nothing left for the residual drain; the test needs a config that leaves work", d)
		}
		want := aggregates(ref.obs)

		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if got := aggregates(sys.obs); got != want {
			t.Errorf("%v: journey aggregates include residual-drain completions:\nrun:      %s\nsnapshot: %s", d, got, want)
		}
	}
}

// TestWatchdogTripDumpsFlightRecorder forces the drained-queue trip and
// checks the report carries the flight-recorder section with the last
// journeys, plus the snapshot taken at trip time.
func TestWatchdogTripDumpsFlightRecorder(t *testing.T) {
	wl, err := workload.ByName("ft.C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(dramcache.TDRAM, wl, 4<<20)
	cfg.RequestsPerCore = 200
	cfg.WarmupPerCore = 0
	cfg.Watchdog = 10 * sim.Millisecond
	cfg.Obs = obs.Config{FlightRecorder: 16}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sys.wd.TripDrained(3)
	report := sys.wd.Report()
	if !strings.Contains(report, "flight: flight recorder: 16/16 journeys") {
		t.Errorf("report lacks the flight dump:\n%s", report)
	}
	if !strings.Contains(report, "jrny id=") || !strings.Contains(report, "cmd  hbm3-cache.ch") {
		t.Errorf("flight dump lacks journeys/commands:\n%s", report)
	}
	snaps := sys.Observer().FlightSnapshots()
	if len(snaps) != 1 || !strings.Contains(snaps[0], "watchdog: event queue drained with 3 request(s) outstanding") {
		t.Errorf("trip snapshot missing or wrong: %q", snaps)
	}
}

// TestRejectedWriteKeepsCoreQueueTime: a posted write that the
// controller first rejects waits at its core, and when it is accepted
// into an idle channel its data write issues inside that same Enqueue,
// which finishes its journey. The wait must still be attributed to the
// core-queue phase.
func TestRejectedWriteKeepsCoreQueueTime(t *testing.T) {
	cfg := smallConfig(t, dramcache.TDRAM, "is.D")
	cfg.Obs = obs.Config{Journeys: true}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := sys.cores[0]
	// Offer writes at time zero until a channel's write queue is full.
	var w *mem.Request
	for line := uint64(0); w == nil; line++ {
		req := c.newRequest(line, mem.Write)
		if !sys.ctl.Enqueue(req) {
			w = req
		}
	}
	// Let the queued writes drain, then offer the rejected one again.
	const wait = 20 * sim.Microsecond
	sys.sim.Run(wait)
	if !sys.ctl.Enqueue(w) {
		t.Fatal("the drained controller rejected the write again")
	}
	// Finishing a journey clears the request's reference to it (the
	// record itself is back in the core's pool, unused since).
	if w.J != nil {
		t.Fatal("the write did not issue inside its own Enqueue; the test no longer covers that path")
	}
	if got := sys.obs.JourneyPhaseSum(mem.ClassWrite, mem.PhaseCoreQueue); got != wait {
		t.Errorf("write journeys spent %v in the core queue, want the rejected write's %v", got, wait)
	}
}
