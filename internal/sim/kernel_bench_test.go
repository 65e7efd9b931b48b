package sim

import "testing"

// Kernel microbenchmarks: steady-state schedule/fire throughput of the
// timing wheel against the seed heap kernel (refSim, kept in
// kernel_equiv_test.go). Each benchmark primes the wheel first so slab
// growth is out of the measured region — the acceptance numbers are the
// steady state, where scheduling allocates nothing.

func nopEv(any, Tick) {}

// BenchmarkKernelScheduleFire is the controller pattern: a rolling window
// of near-future events, scheduled with ScheduleArg and drained in
// batches.
func BenchmarkKernelScheduleFire(b *testing.B) {
	s := New()
	for i := 0; i < 4096; i++ {
		s.ScheduleArg(Tick(i%64), nopEv, nil)
	}
	for s.Pending() > 0 {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleArg(Tick(i%64), nopEv, nil)
		if s.Pending() > 1024 {
			for s.Pending() > 0 {
				s.Step()
			}
		}
	}
	for s.Pending() > 0 {
		s.Step()
	}
}

// BenchmarkKernelSameTickBurst measures the tie-ordering path: bursts of
// events on one tick, fired in FIFO order from a single bucket slab.
func BenchmarkKernelSameTickBurst(b *testing.B) {
	s := New()
	for i := 0; i < 64; i++ {
		s.ScheduleArg(8, nopEv, nil)
	}
	for s.Pending() > 0 {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		for j := 0; j < 64; j++ {
			s.ScheduleArg(8, nopEv, nil)
		}
		for s.Pending() > 0 {
			s.Step()
		}
	}
}

// BenchmarkKernelCascade targets delays past the level-0 window, so every
// event is placed in level 1 and cascaded into level 0 before firing.
func BenchmarkKernelCascade(b *testing.B) {
	s := New()
	delay := Tick(4 * l0Size)
	for i := 0; i < 256; i++ {
		s.ScheduleArg(delay, nopEv, nil)
	}
	for s.Pending() > 0 {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleArg(delay, nopEv, nil)
		if s.Pending() > 256 {
			for s.Pending() > 0 {
				s.Step()
			}
		}
	}
	for s.Pending() > 0 {
		s.Step()
	}
}

// BenchmarkKernelOverflow parks every event beyond the wheel horizon, so
// scheduling exercises the sorted overflow tier and firing exercises the
// drain — the watchdog/sampler pattern, far off any per-request path.
func BenchmarkKernelOverflow(b *testing.B) {
	s := New()
	delay := 2 * l1Span
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleArg(delay, nopEv, nil)
		if s.Pending() > 64 {
			for s.Pending() > 0 {
				s.Step()
			}
		}
	}
	for s.Pending() > 0 {
		s.Step()
	}
}

// BenchmarkKernelHeapReference is the seed kernel under the
// BenchmarkKernelScheduleFire workload — the before number for the ≥5x
// schedule/fire acceptance criterion.
func BenchmarkKernelHeapReference(b *testing.B) {
	r := &refSim{}
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.schedule(Tick(i%64), fn, false, false)
		if len(r.events) > 1024 {
			for r.step() {
			}
		}
	}
	for r.step() {
	}
}
