package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// The in-source escape hatch. A comment of the form
//
//	//tdlint:allow poollife — the queue is the record's single owner
//	//tdlint:allow determinism,hookguard — reason covering both
//
// suppresses findings from the named analyzers on the comment's own line
// and on the line directly below it (so it works both as a trailing
// comment and as a directive above the flagged statement). The reason
// text after the dash is mandatory: an allow without a justification is
// itself reported by the driver as a malformed directive.

const allowPrefix = "tdlint:allow"

// allowEntry is one analyzer name granted at one directive. The used
// flag is set when the entry actually suppresses a finding, so the
// driver can report directives that no longer suppress anything.
type allowEntry struct {
	name string
	pos  token.Position // the directive comment's position
	used bool
}

// AllowIndex records, per file and line, which analyzers are exempted.
type AllowIndex struct {
	// byLine maps filename → line → allow entries granted there.
	byLine map[string]map[int][]*allowEntry
	// Malformed lists tdlint:allow directives missing a name or reason;
	// the driver reports these as findings so broken exemptions cannot
	// silently suppress nothing (or everything).
	Malformed []Finding
}

// allows reports whether analyzer name is exempted at pos, marking the
// matching entry as used.
func (ai *AllowIndex) allows(name string, pos token.Position) bool {
	if ai == nil || ai.byLine == nil {
		return false
	}
	lines := ai.byLine[pos.Filename]
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		for _, e := range lines[l] {
			if e.name == name {
				e.used = true
				return true
			}
		}
	}
	return false
}

// Unused reports allow entries that suppressed nothing during the run.
// known is the set of analyzer names that actually ran: entries naming
// an analyzer outside that set are skipped (an -only run must not flag
// exemptions for analyzers it never executed), except that entries
// naming an analyzer unknown to the full registry are reported as
// typos. Call after Run; results are in directive order per file.
func (ai *AllowIndex) Unused(known map[string]bool) []Finding {
	if ai == nil {
		return nil
	}
	// Deterministic order: files, then lines, then entry order.
	files := make([]string, 0, len(ai.byLine))
	for f := range ai.byLine {
		files = append(files, f)
	}
	sort.Strings(files)
	var out []Finding
	for _, f := range files {
		lines := ai.byLine[f]
		nos := make([]int, 0, len(lines))
		for l := range lines {
			nos = append(nos, l)
		}
		sort.Ints(nos)
		for _, l := range nos {
			for _, e := range lines[l] {
				if e.used {
					continue
				}
				msg := "unused tdlint:allow " + e.name + ": suppresses no finding; delete the directive"
				if !known[e.name] {
					msg = "tdlint:allow names unknown analyzer " + e.name
				}
				out = append(out, Finding{Analyzer: "tdlint", Pos: e.pos, Message: msg})
			}
		}
	}
	return out
}

// BuildAllowIndex scans the comments of files for tdlint:allow
// directives. Directive comments must be line comments ("//..."); the
// gofmt convention for directives (no space after "//") is accepted as
// well as the spaced form.
func BuildAllowIndex(fset *token.FileSet, files []*ast.File) *AllowIndex {
	ai := &AllowIndex{byLine: make(map[string]map[int][]*allowEntry)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				names, reason := parseAllow(text)
				if len(names) == 0 || reason == "" {
					ai.Malformed = append(ai.Malformed, Finding{
						Analyzer: "tdlint",
						Pos:      pos,
						Message:  "malformed tdlint:allow directive: want //tdlint:allow <analyzer>[,<analyzer>...] — <reason>",
					})
					continue
				}
				m := ai.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]*allowEntry)
					ai.byLine[pos.Filename] = m
				}
				for _, n := range names {
					m[pos.Line] = append(m[pos.Line], &allowEntry{name: n, pos: pos})
				}
			}
		}
	}
	return ai
}

// parseAllow splits "tdlint:allow a,b — reason" into names and reason.
func parseAllow(text string) (names []string, reason string) {
	return SplitDirective(strings.TrimPrefix(text, allowPrefix))
}

// SplitDirective splits the payload of a tdlint directive — "a,b —
// reason" — into comma/space-separated names and the reason text. The
// separator may be an em dash, en dash, "--", or a single "-"
// surrounded by spaces. Shared by the allow index and by analyzers with
// their own directives (copydrift's //tdlint:shared).
func SplitDirective(rest string) (names []string, reason string) {
	rest = strings.TrimSpace(rest)
	namePart := rest
	for _, sep := range []string{"—", "–", " -- ", " - "} {
		if i := strings.Index(rest, sep); i >= 0 {
			namePart, reason = rest[:i], strings.TrimSpace(rest[i+len(sep):])
			break
		}
	}
	for _, n := range strings.FieldsFunc(namePart, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		names = append(names, n)
	}
	return names, strings.TrimSpace(reason)
}
