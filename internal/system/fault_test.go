package system

import (
	"strings"
	"testing"

	"tdram/internal/dramcache"
	"tdram/internal/fault"
	"tdram/internal/obs"
	"tdram/internal/sim"
)

// faultConfig is smallConfig trimmed further under -short, so the race
// CI pass stays inside its single-core time budget.
func faultConfig(t *testing.T, d dramcache.Design, wl string) Config {
	cfg := smallConfig(t, d, wl)
	if testing.Short() {
		cfg.WarmupPerCore = 200
		cfg.RequestsPerCore = 800
	}
	return cfg
}

// TestFaultSeededDeterminism is the acceptance criterion for the
// injector: two runs with the same -fault-seed produce identical
// runtimes, outcomes and fault counters.
func TestFaultSeededDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := faultConfig(t, dramcache.TDRAM, "ft.C")
		cfg.Cache.Fault = fault.Config{Rate: 1e-2, Seed: 7}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Runtime != b.Runtime {
		t.Errorf("runtimes differ: %v vs %v", a.Runtime, b.Runtime)
	}
	if a.Cache.Outcomes != b.Cache.Outcomes {
		t.Error("outcome counts differ")
	}
	if a.Cache.Traffic != b.Cache.Traffic {
		t.Error("traffic differs")
	}
	if a.Cache.Fault != b.Cache.Fault {
		t.Errorf("fault counters differ:\na: %+v\nb: %+v", a.Cache.Fault, b.Cache.Fault)
	}
	if a.Cache.Fault.Injected == 0 {
		t.Error("rate 1e-2 injected nothing over a full run")
	}
}

// TestFaultDisabledAndWatchdogInert: a zero fault rate plus an armed
// watchdog must be bit-identical to a plain run — both subsystems are
// nil/observe-only when idle.
func TestFaultDisabledAndWatchdogInert(t *testing.T) {
	plain, err := Run(faultConfig(t, dramcache.TDRAM, "ft.C"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, dramcache.TDRAM, "ft.C")
	cfg.Cache.Fault = fault.Config{Rate: 0, Seed: 999} // rate 0: disabled
	cfg.Watchdog = 10 * sim.Millisecond
	armed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Runtime != armed.Runtime {
		t.Errorf("runtime differs: plain %v, armed %v", plain.Runtime, armed.Runtime)
	}
	if plain.Cache.Outcomes != armed.Cache.Outcomes {
		t.Error("outcomes differ under an armed watchdog")
	}
	if plain.Cache.Traffic != armed.Cache.Traffic {
		t.Error("traffic differs under an armed watchdog")
	}
	if armed.Cache.Fault != (fault.Counters{}) {
		t.Errorf("disabled injector accumulated counters: %+v", armed.Cache.Fault)
	}
}

// TestFaultInjectedRunCompletes: a realistic fault rate corrects most
// faults in flight and the run finishes with consistent accounting.
func TestFaultInjectedRunCompletes(t *testing.T) {
	cfg := faultConfig(t, dramcache.TDRAM, "ft.C")
	cfg.Cache.Fault = fault.Config{Rate: 1e-3, Seed: 3}
	cfg.Watchdog = 10 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Cache.Fault
	if f.Injected == 0 || f.Corrected == 0 {
		t.Fatalf("nothing injected/corrected: %+v", f)
	}
	if f.Corrected+f.Detected != f.Injected {
		t.Errorf("corrected %d + detected %d != injected %d", f.Corrected, f.Detected, f.Injected)
	}
	if got := f.DataFaults + f.TagFaults + f.HMFaults + f.FlushFaults; got != f.Injected {
		t.Errorf("site counts sum to %d, want %d", got, f.Injected)
	}
}

// TestFaultDegradedRunCompletes: a hostile configuration — every other
// fault uncorrectable, sets retired on the first exhausted access —
// degrades (retired sets, bypassed demands) but still terminates.
func TestFaultDegradedRunCompletes(t *testing.T) {
	cfg := smallConfig(t, dramcache.TDRAM, "is.C")
	// A small cache (few sets) keeps the odds high that the access stream
	// re-touches a retired set, so the bypass path is reliably exercised.
	cfg.Cache = dramcache.DefaultConfig(dramcache.TDRAM, 1<<20)
	cfg.RequestsPerCore = 800
	cfg.WarmupPerCore = 100
	cfg.Cache.Fault = fault.Config{
		Rate: 0.1, Seed: 11, UncorrectableFrac: 0.5, RetryBudget: 1, RetireThreshold: 1,
	}
	cfg.Watchdog = 10 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Cache.Fault
	if f.Exhausted == 0 {
		t.Errorf("no exhausted retries under 50%% uncorrectable faults: %+v", f)
	}
	if f.SetsRetired == 0 {
		t.Errorf("threshold 1 never retired a set: %+v", f)
	}
	if f.Bypasses == 0 {
		t.Errorf("retired sets never bypassed a demand: %+v", f)
	}
}

// TestWatchdogAbortsDrainedQueue: a phantom in-flight request (its
// completion will never arrive) leaves a core busy forever; once the
// event queue drains, the run must abort with the drained-queue
// diagnosis instead of reporting a silent short result.
func TestWatchdogAbortsDrainedQueue(t *testing.T) {
	cfg := smallConfig(t, dramcache.TDRAM, "ft.C")
	cfg.RequestsPerCore = 200
	cfg.WarmupPerCore = 0
	cfg.Watchdog = 10 * sim.Microsecond
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.cores[0].outstanding = 1 // phantom request, never completes
	_, err = sys.Run()
	if err == nil {
		t.Fatal("run with a wedged core reported success")
	}
	for _, want := range []string{"watchdog:", "outstanding", "cachectl:", "cores:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("abort diagnostic lacks %q:\n%v", want, err)
		}
	}
}

// TestWatchdogAbortsLivelock is the acceptance criterion: an induced
// livelock — a wedged core plus an event source that keeps simulated
// time advancing without retiring anything — is caught by the window
// check and aborted with a dump, rather than hanging the run.
// runFunc runs the func() stored as an event's argument.
func runFunc(a any, _ sim.Tick) { a.(func())() }

func TestWatchdogAbortsLivelock(t *testing.T) {
	cfg := smallConfig(t, dramcache.TDRAM, "ft.C")
	cfg.RequestsPerCore = 200
	cfg.WarmupPerCore = 0
	cfg.Watchdog = 10 * sim.Microsecond
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.cores[0].outstanding = 1
	var spin func()
	spin = func() { sys.Simulator().ScheduleArg(sim.Nanosecond, runFunc, spin) }
	sys.Simulator().ScheduleArg(0, runFunc, spin)
	_, err = sys.Run()
	if err == nil {
		t.Fatal("livelocked run reported success")
	}
	if !strings.Contains(err.Error(), "no request retired within") {
		t.Errorf("abort diagnostic lacks the no-progress reason:\n%v", err)
	}
}

// TestBackpressurePumpsOnFree asserts the event-driven missFetch rearm
// (satellite of the fault-injection PR): on a workload that saturates
// the backing read queues, demands park (MMReadWaits), are pumped by the
// queue's free event (MMReadPumps), and the run still drains completely.
func TestBackpressurePumpsOnFree(t *testing.T) {
	cfg := smallConfig(t, dramcache.TDRAM, "is.D")
	cfg.Cache = dramcache.DefaultConfig(dramcache.TDRAM, 4<<20)
	cfg.MaxOutstanding = 64
	cfg.RequestsPerCore = 1500
	cfg.WarmupPerCore = 200
	if testing.Short() {
		cfg.RequestsPerCore = 600
		cfg.WarmupPerCore = 100
	}
	cfg.Obs = obs.Config{MetricsInterval: 500_000}
	cfg.Watchdog = 10 * sim.Millisecond
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.MMReadWaits == 0 || res.Cache.MMReadPumps == 0 {
		t.Errorf("saturating run never parked/pumped a backing read: waits=%d pumps=%d",
			res.Cache.MMReadWaits, res.Cache.MMReadPumps)
	}
	if sys.Controller().Pending() != 0 {
		t.Errorf("controller still pending after drain: %d", sys.Controller().Pending())
	}
	counts := map[string]uint64{}
	for _, c := range sys.Observer().Counters() {
		counts[c.Name] = c.Value
	}
	if counts["cache.mmread.wait"] == 0 || counts["cache.mmread.pump"] == 0 {
		t.Errorf("obs counters missing the wait/pump events: %v", counts)
	}
}
