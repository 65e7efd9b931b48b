package dramcache

import (
	"testing"

	"tdram/internal/mem"
)

// TestInstallTagsFromPrewarmer: content warmed by a Prewarmer and
// installed into a controller behaves as if the controller had served
// those accesses itself — a warmed clean line hits without touching main
// memory and a warmed dirty line is written back when evicted — for
// every design sharing the one image. A mismatched geometry is rejected
// and the retired Prewarmer refuses further use.
func TestInstallTagsFromPrewarmer(t *testing.T) {
	pw, err := NewPrewarmer(testCapacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	pw.Prewarm(100, false) // read miss: installed clean
	pw.Prewarm(7, true)    // write miss: installed dirty
	img := pw.Image()

	for _, d := range Designs() {
		t.Run(d.String(), func(t *testing.T) {
			h := defaultHarness(t, d)
			if err := h.ctl.InstallTags(img); err != nil {
				t.Fatal(err)
			}
			h.read(100)
			h.read(7 + 4096) // 4096 sets direct-mapped: evicts dirty 7
			h.drain()
			st := h.ctl.Stats()
			if got := st.Outcomes.Count(mem.ReadHit); got != 1 {
				t.Errorf("read hits = %d, want the warmed line", got)
			}
			if got := st.Outcomes.Count(mem.ReadMissDirty); got != 1 {
				t.Errorf("read-miss-dirty = %d, want the warmed dirty victim", got)
			}
			if got := h.mm.Stats().Writes; got != 1 {
				t.Errorf("victim writebacks at mm = %d", got)
			}
		})
	}

	other := newHarness(t, Config{Design: TDRAM, CapacityBytes: testCapacity, Ways: 2, FlushEntries: 16})
	if err := other.ctl.InstallTags(img); err == nil {
		t.Error("2-way controller accepted a direct-mapped image")
	}

	defer func() {
		if recover() == nil {
			t.Error("Prewarm on a retired Prewarmer did not panic")
		}
	}()
	pw.Prewarm(1, false)
}
