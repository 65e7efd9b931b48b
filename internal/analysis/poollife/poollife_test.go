package poollife_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tdram/internal/analysis/analysistest"
	"tdram/internal/analysis/poollife"
)

func TestPoolLife(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poollife.Analyzer, "pool")
}

// TestSeededMutation proves the analyzer guards the real freelists: in a
// copy of internal/dramcache (directives included) it moves one real
// transaction release above the record's last use — writebackVictimEv
// returning its event's reference before it reads the victim line — and
// asserts the use after release is reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks a real package")
	}
	const (
		use     = "\tt.cc.ctl.writeback(t.victim)\n"
		release = "\tt.cc.releaseTxn(t)\n"
	)
	fs := analysistest.Mutate(t, poollife.Analyzer, filepath.Join("..", "..", "dramcache"), "chanctl_issue.go", use+release, release+use)
	if len(fs) != 1 || filepath.Base(fs[0].Pos.Filename) != "chanctl_issue.go" ||
		!strings.Contains(fs[0].Message, "pooled record t is used after being released to its freelist") {
		t.Errorf("releasing the transaction before writeback reads it went undetected; findings:\n%s", analysistest.Render(fs))
	}
}
