package copydrift_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tdram/internal/analysis"
	"tdram/internal/analysis/analysistest"
	"tdram/internal/analysis/copydrift"
)

func TestCopyDrift(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), copydrift.Analyzer, "snap")
}

// TestDirectiveHygiene checks that broken directives are findings, not
// silent no-ops. These diagnostics land on the directive comments
// themselves, so they are asserted by content rather than // want.
func TestDirectiveHygiene(t *testing.T) {
	findings := analysistest.Findings(t, analysistest.TestData(), copydrift.Analyzer, "snapbad")
	wants := []string{
		"tdlint:shared on orphan.fn, but orphan has no //tdlint:copier function",
		"malformed tdlint:shared directive",
		"tdlint:shared names unknown field nosuchfield of hasBad",
		"tdlint:copier names notAType, which is not a type in this package",
		"tdlint:copier names scalar, which is not a struct type",
		"malformed tdlint:copier directive",
	}
	for _, want := range wants {
		if !hasFinding(findings, want) {
			t.Errorf("missing diagnostic containing %q in:\n%s", want, analysistest.Render(findings))
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d:\n%s", len(findings), len(wants), analysistest.Render(findings))
	}
}

// TestSeededMutation proves the analyzer catches real drift: in a copy
// of internal/cache (directives included) it deletes the one line of
// Cache.Clone that deep-copies the tag array — the copy every forked
// warmup image depends on — and asserts the now-shared slice is
// reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks a real package")
	}
	const victim = "\td.tags = append([]uint64(nil), c.tags...)\n"
	fs := analysistest.Mutate(t, copydrift.Analyzer, filepath.Join("..", "..", "cache"), "cache.go", victim, "")
	if len(fs) != 1 || filepath.Base(fs[0].Pos.Filename) != "cache.go" ||
		!strings.Contains(fs[0].Message, "field Cache.tags is shallow-copied by Clone") {
		t.Errorf("deleting %q went undetected; findings:\n%s", victim, analysistest.Render(fs))
	}
}

func hasFinding(fs []analysis.Finding, substr string) bool {
	for _, f := range fs {
		if strings.Contains(f.Message, substr) {
			return true
		}
	}
	return false
}
