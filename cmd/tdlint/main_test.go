package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestRegistry pins the multichecker's registry: exactly the six
// domain analyzers, in a stable order, each documented and runnable.
func TestRegistry(t *testing.T) {
	want := []string{"determinism", "hookguard", "tickconv", "copydrift", "poollife", "locksafe"}
	got := analyzers()
	if len(got) != len(want) {
		t.Fatalf("analyzers() registered %d analyzers, want exactly %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no documentation", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run function", a.Name)
		}
	}
}

// TestTreeIsClean is the acceptance gate: the committed tree must pass
// the full suite — including the unused-allow audit. Equivalent to
// `go run ./cmd/tdlint ./...` from the module root.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree type-check; skipped in -short runs")
	}
	if code := run([]string{"-C", "../..", "./..."}, os.Stdout, os.Stderr); code != 0 {
		t.Fatalf("tdlint ./... exited %d on the committed tree; run `go run ./cmd/tdlint ./...` for the findings", code)
	}
}

// TestUnknownAnalyzerRejected covers the -only selection path.
func TestUnknownAnalyzerRejected(t *testing.T) {
	if code := run([]string{"-only", "nosuch"}, os.Stdout, os.Stderr); code != 2 {
		t.Fatalf("run(-only nosuch) = %d, want 2", code)
	}
}

// TestJSONOutput checks the machine-readable document parses and
// reports a clean package as zero findings.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a real package; skipped in -short runs")
	}
	out, err := os.CreateTemp(t.TempDir(), "findings-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if code := run([]string{"-C", "../..", "-json", "./internal/stats"}, out, os.Stderr); code != 0 {
		t.Fatalf("tdlint -json ./internal/stats exited %d", code)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Count    int           `json:"count"`
		Findings []jsonFinding `json:"findings"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, data)
	}
	if doc.Count != 0 || len(doc.Findings) != 0 {
		t.Fatalf("expected a clean package, got %d finding(s):\n%s", doc.Count, data)
	}
}
