package determinism_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tdram/internal/analysis/analysistest"
	"tdram/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), determinism.Analyzer, "determ")
}

// TestSeededMutation proves the sorted-keys exemption needs the sort to
// come after the map range: in a copy of internal/obs it moves
// Observer.Counters' sort.Slice above the loop that appends the map's
// counters, so the result's order follows map iteration again, and
// asserts the append is reported.
func TestSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks a real package")
	}
	const (
		sortCall = "\tsort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })\n"
		loop     = "\tfor n, v := range o.counters {\n\t\tcs = append(cs, Counter{Name: n, Value: v})\n\t}\n"
		rest     = "\tif _, dropped := o.TraceEvents(); dropped > 0 {\n\t\tcs = append(cs, Counter{Name: \"obs.trace_dropped\", Value: dropped})\n\t}\n" +
			"\tif dropped := o.SamplesDropped(); dropped > 0 {\n\t\tcs = append(cs, Counter{Name: \"obs.samples_dropped\", Value: dropped})\n\t}\n"
	)
	fs := analysistest.Mutate(t, determinism.Analyzer, filepath.Join("..", "..", "obs"), "obs.go",
		loop+rest+sortCall, sortCall+loop+rest)
	if len(fs) != 1 || filepath.Base(fs[0].Pos.Filename) != "obs.go" ||
		!strings.Contains(fs[0].Message, "appending to cs while ranging over a map without sorting afterwards") {
		t.Errorf("sorting before the map range went undetected; findings:\n%s", analysistest.Render(fs))
	}
}
