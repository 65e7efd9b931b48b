package dramcache

import (
	"math/rand"
	"testing"
)

// ResetStats marks the warmup/measured boundary; these tests pin the
// two counters that used to leak across it.

// PredictorAccuracy must cover measured-phase accesses only: the score
// restarts at the boundary while the learned table persists.
func TestResetStatsRestartsPredictorAccuracy(t *testing.T) {
	cfg := DefaultConfig(CascadeLake, testCapacity)
	cfg.UsePredictor = true
	h := newHarness(t, cfg)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		h.read(uint64(rng.Intn(1 << 20)))
	}
	h.drain()
	if h.ctl.Stats().PredictorAccuracy == 0 {
		t.Fatal("warmup trained nothing")
	}
	h.ctl.ResetStats()
	if acc := h.ctl.Stats().PredictorAccuracy; acc != 0 {
		t.Errorf("accuracy %v right after ResetStats, want 0 (stale warmup score)", acc)
	}
	// Measured-phase traffic scores against the (retained) warmed table.
	for i := 0; i < 300; i++ {
		h.read(uint64(rng.Intn(1 << 20)))
	}
	h.drain()
	if acc := h.ctl.Stats().PredictorAccuracy; acc <= 0 || acc > 1 {
		t.Errorf("post-reset accuracy = %v out of range", acc)
	}
}

// Prefetch usefulness scoring must not span the boundary: a line
// prefetched during warmup and referenced during the measured phase
// would otherwise count as a measured useful prefetch that was never a
// measured issued prefetch (PrefetchesUseful could exceed Issued).
func TestResetStatsClearsPrefetchScoring(t *testing.T) {
	cfg := DefaultConfig(TDRAM, testCapacity)
	cfg.UsePrefetcher = true
	h := newHarness(t, cfg)
	for i := uint64(0); i < 64; i++ {
		h.read(1000 + i)
		h.drain()
	}
	if h.ctl.Stats().PrefetchesIssued == 0 {
		t.Fatal("warmup issued no prefetches")
	}
	h.ctl.ResetStats()
	if n := len(h.ctl.prefetched); n != 0 {
		t.Errorf("%d warmup prefetches still pending scoring after ResetStats", n)
	}
	// Keep striding: the lines the warmup prefetcher brought ahead are
	// referenced now, but must not score against the cleared ledger.
	for i := uint64(64); i < 96; i++ {
		h.read(1000 + i)
		h.drain()
	}
	st := h.ctl.Stats()
	if st.PrefetchesUseful > st.PrefetchesIssued {
		t.Errorf("useful %d > issued %d: warmup scoring leaked across ResetStats",
			st.PrefetchesUseful, st.PrefetchesIssued)
	}
}
