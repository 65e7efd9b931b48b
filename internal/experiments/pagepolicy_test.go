package experiments

import (
	"strings"
	"testing"
)

func TestPagePolicyAblation(t *testing.T) {
	rep := runStudy(t, tinyScale(t), "abl-pagepolicy")
	s := rep.String()
	if !strings.Contains(s, "row-hit-frac") {
		t.Errorf("malformed:\n%s", s)
	}
}
