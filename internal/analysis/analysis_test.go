package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text   string
		names  []string
		reason string
	}{
		{"tdlint:allow poollife — the queue is the single owner", []string{"poollife"}, "the queue is the single owner"},
		{"tdlint:allow determinism,hookguard — covers both", []string{"determinism", "hookguard"}, "covers both"},
		{"tdlint:allow tickconv -- ascii dashes work too", []string{"tickconv"}, "ascii dashes work too"},
		{"tdlint:allow tickconv - single dash works", []string{"tickconv"}, "single dash works"},
		{"tdlint:allow hookguard", []string{"hookguard"}, ""}, // missing reason → malformed
		{"tdlint:allow — reason but no analyzer", nil, "reason but no analyzer"},
	}
	for _, c := range cases {
		names, reason := parseAllow(c.text)
		if len(names) != len(c.names) {
			t.Errorf("parseAllow(%q) names = %v, want %v", c.text, names, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("parseAllow(%q) names = %v, want %v", c.text, names, c.names)
			}
		}
		if reason != c.reason {
			t.Errorf("parseAllow(%q) reason = %q, want %q", c.text, reason, c.reason)
		}
	}
}

const allowSrc = `package p

//tdlint:allow determinism — directive above the flagged line
var a = 1

var b = 2 //tdlint:allow hookguard,tickconv — trailing directive

//tdlint:allow poollife
var c = 3
`

func TestAllowIndex(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", allowSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ai := BuildAllowIndex(fset, []*ast.File{f})

	check := func(name string, line int, want bool) {
		t.Helper()
		got := ai.allows(name, token.Position{Filename: "p.go", Line: line})
		if got != want {
			t.Errorf("allows(%s, line %d) = %v, want %v", name, line, got, want)
		}
	}
	check("determinism", 3, true)  // the directive's own line
	check("determinism", 4, true)  // the line below
	check("determinism", 5, false) // two lines below: out of range
	check("hookguard", 6, true)
	check("tickconv", 6, true)
	check("poollife", 6, false) // not named on that line

	// The reason-less directive is rejected: recorded as malformed,
	// suppressing nothing.
	check("poollife", 9, false)
	if len(ai.Malformed) != 1 {
		t.Fatalf("got %d malformed directives, want 1", len(ai.Malformed))
	}
	if ai.Malformed[0].Pos.Line != 8 {
		t.Errorf("malformed directive reported at line %d, want 8", ai.Malformed[0].Pos.Line)
	}
}
