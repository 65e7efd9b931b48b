package experiments

import (
	"strings"
	"testing"
)

func TestPrefetcherStudy(t *testing.T) {
	rep := runStudy(t, tinyScale(t), "prefetcher")
	if !strings.Contains(rep.String(), "prefetcher") {
		t.Error("malformed report")
	}
}
