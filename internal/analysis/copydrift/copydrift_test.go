package copydrift_test

import (
	"os"
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
			t.Errorf("missing diagnostic containing %q in:\n%s", want, render(findings))
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d:\n%s", len(findings), len(wants), render(findings))
	}
}

// TestSeededMutation proves the analyzer catches real drift: it copies
// the real internal/cache sources (directives included) into a fixture,
// then deletes the one line of Cache.Clone that deep-copies the tag
// array — the copy every forked warmup image depends on — and asserts
// the now-shared slice is reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks a real package")
	}
	const victim = "d.tags = append([]uint64(nil), c.tags...)"

	// The fixture root lives next to testdata/src so the go command
	// still resolves standard-library export data from inside the
	// module.
	root, err := os.MkdirTemp(analysistest.TestData(), "tmp-mutation-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(root) })
	dst := filepath.Join(root, "src", "cache")
	if err := os.MkdirAll(dst, 0o777); err != nil {
		t.Fatal(err)
	}

	srcDir := filepath.Join("..", "..", "cache")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "cache.go" {
			lines := strings.Split(string(data), "\n")
			kept := lines[:0]
			for _, l := range lines {
				if strings.Contains(l, victim) {
					mutated = true
					continue
				}
				kept = append(kept, l)
			}
			data = []byte(strings.Join(kept, "\n"))
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if !mutated {
		t.Fatalf("mutation target %q not found in internal/cache/cache.go", victim)
	}

	findings := analysistest.Findings(t, root, copydrift.Analyzer, "cache")
	if !hasFinding(findings, "field Cache.tags is shallow-copied by Clone") {
		t.Errorf("deleting %q went undetected; findings:\n%s", victim, render(findings))
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

func render(fs []analysis.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
