package tickconv_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tdram/internal/analysis/analysistest"
	"tdram/internal/analysis/tickconv"
)

func TestTickConv(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), tickconv.Analyzer, "sim", "dram", "consumer")
}

// TestSeededMutation proves the analyzer catches a raw timing literal in
// real code: in a copy of internal/cache it writes the L1 hit latency of
// NewSizedHierarchy as sim.Tick(1000) instead of sim.NS(1) and asserts
// the conversion is reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks a real package")
	}
	fs := analysistest.Mutate(t, tickconv.Analyzer, filepath.Join("..", "..", "cache"), "cache.go",
		`Name: "l1d", Size: l1Bytes, Ways: 8, Latency: sim.NS(1)`,
		`Name: "l1d", Size: l1Bytes, Ways: 8, Latency: sim.Tick(1000)`)
	if len(fs) != 1 || filepath.Base(fs[0].Pos.Filename) != "cache.go" ||
		!strings.Contains(fs[0].Message, "raw integer literal 1000 converted to sim.Tick") {
		t.Errorf("a raw sim.Tick literal went undetected; findings:\n%s", analysistest.Render(fs))
	}
}
