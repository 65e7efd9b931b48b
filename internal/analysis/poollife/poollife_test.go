package poollife_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdram/internal/analysis"
	"tdram/internal/analysis/analysistest"
	"tdram/internal/analysis/poollife"
)

func TestPoolLife(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poollife.Analyzer, "pool")
}

// TestSeededMutation proves the analyzer guards the real freelists: it
// copies internal/dramcache's sources (directives included) into a
// fixture, where its tdram/internal/... imports resolve through export
// data, checks the copy is clean, then moves one real transaction
// release above the record's last use — writebackVictimEv returning its
// event's reference before it reads the victim line — and asserts the
// use after release is reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks a real package")
	}
	const (
		use     = "\tt.cc.ctl.writeback(t.victim)\n"
		release = "\tt.cc.releaseTxn(t)\n"
	)
	srcDir := filepath.Join("..", "..", "dramcache")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[string]string)
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		sources[name] = string(data)
	}
	const victim = "chanctl_issue.go"
	if strings.Count(sources[victim], use+release) != 1 {
		t.Fatalf("mutation target %q not found once in internal/dramcache/%s", use+release, victim)
	}

	if fs := poolFindings(t, sources); len(fs) != 0 {
		t.Fatalf("the unmutated copy is not clean:\n%s", render(fs))
	}
	sources[victim] = strings.Replace(sources[victim], use+release, release+use, 1)
	fs := poolFindings(t, sources)
	if len(fs) != 1 || filepath.Base(fs[0].Pos.Filename) != victim ||
		!strings.Contains(fs[0].Message, "pooled record t is used after being released to its freelist") {
		t.Errorf("releasing the transaction before writeback reads it went undetected; findings:\n%s", render(fs))
	}
}

// poolFindings writes sources as fixture package dramcache in a fresh
// root and runs the analyzer over it. The root lives next to
// testdata/src so the go command still resolves export data from inside
// the module.
func poolFindings(t *testing.T, sources map[string]string) []analysis.Finding {
	t.Helper()
	root, err := os.MkdirTemp(analysistest.TestData(), "tmp-mutation-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(root) })
	dst := filepath.Join(root, "src", "dramcache")
	if err := os.MkdirAll(dst, 0o777); err != nil {
		t.Fatal(err)
	}
	for name, data := range sources {
		if err := os.WriteFile(filepath.Join(dst, name), []byte(data), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return analysistest.Findings(t, root, poollife.Analyzer, "dramcache")
}

func render(fs []analysis.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
