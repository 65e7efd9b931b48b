package hookguard_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tdram/internal/analysis/analysistest"
	"tdram/internal/analysis/hookguard"
)

func TestHookGuard(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hookguard.Analyzer, "hooked")
}

// TestSeededMutation proves the analyzer guards a real hook: in a copy of
// internal/dram it drops the nil check around Channel.refresh's
// OnRefresh call — without it every channel but a TDRAM cache channel
// would call a nil func — and asserts the unguarded call is reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks a real package")
	}
	const call = "c.OnRefresh(now, end)"
	fs := analysistest.Mutate(t, hookguard.Analyzer, filepath.Join("..", "..", "dram"), "channel.go",
		"if c.OnRefresh != nil {\n\t\t"+call+"\n\t}", call)
	if len(fs) != 1 || filepath.Base(fs[0].Pos.Filename) != "channel.go" ||
		!strings.Contains(fs[0].Message, "hook callback c.OnRefresh invoked without a dominating nil check") {
		t.Errorf("dropping the OnRefresh nil check went undetected; findings:\n%s", analysistest.Render(fs))
	}
}
