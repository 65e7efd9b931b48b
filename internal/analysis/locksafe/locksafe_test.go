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
// code: in a copy of internal/serve it strips the lock from
// Job.cellDone, whose progress write races the status readers, and in a
// copy of internal/lru the lock from Cache.Bytes, whose read races every
// keep and evict; each now-unguarded field access is reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks real packages")
	}
	for _, m := range []struct {
		pkg, file, from, to, want string
	}{
		{"serve", "job.go",
			"\tj.mu.Lock()\n\tdefer j.mu.Unlock()\n\tj.done = done\n", "\tj.done = done\n",
			"field Job.done is guarded by mu but accessed without holding it"},
		{"lru", "lru.go",
			"\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.size\n", "\tdefer c.mu.Unlock()\n\treturn c.size\n",
			"field Cache.size is guarded by mu but accessed without holding it"},
	} {
		fs := analysistest.Mutate(t, locksafe.Analyzer, filepath.Join("..", "..", m.pkg), m.file, m.from, m.to)
		if len(fs) != 1 || filepath.Base(fs[0].Pos.Filename) != m.file || !strings.Contains(fs[0].Message, m.want) {
			t.Errorf("stripping a lock in %s/%s went undetected; findings:\n%s", m.pkg, m.file, analysistest.Render(fs))
		}
	}
}
