package locksafe_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tdram/internal/analysis/analysistest"
	"tdram/internal/analysis/locksafe"
)

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), locksafe.Analyzer, "serve")
}

// TestSeededMutation proves the analyzer catches a dropped lock in real
// code: in a copy of internal/serve it strips the lock from Job.setDone,
// whose progress write races the status readers, and asserts the
// now-unguarded field write is reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks a real package")
	}
	const (
		lock  = "\tj.mu.Lock()\n\tdefer j.mu.Unlock()\n"
		write = "\tj.done = n\n"
	)
	fs := analysistest.Mutate(t, locksafe.Analyzer, filepath.Join("..", "..", "serve"), "job.go", lock+write, write)
	if len(fs) != 1 || filepath.Base(fs[0].Pos.Filename) != "job.go" ||
		!strings.Contains(fs[0].Message, "field Job.done is guarded by mu but accessed without holding it") {
		t.Errorf("stripping the lock from setDone went undetected; findings:\n%s", analysistest.Render(fs))
	}
}
