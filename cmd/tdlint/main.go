// Command tdlint is the repository's static-analysis multichecker. It
// enforces, mechanically, the invariants the simulator's results rest
// on: bit-identical output across runs (determinism), the nil-checked
// observe-hook pattern (hookguard), timing values flowing from named
// parameters (tickconv), complete snapshot/fork copiers (copydrift),
// pooled-record lifecycles (poollife), and the serving tier's lock
// discipline (locksafe).
//
// Usage:
//
//	go run ./cmd/tdlint ./...
//	go run ./cmd/tdlint -list
//	go run ./cmd/tdlint -only determinism,hookguard ./internal/...
//	go run ./cmd/tdlint -json ./... > findings.json
//
// Findings print as file:line:col: message (analyzer), one per line,
// followed by indented remediation hints. -json emits them as a single
// machine-readable document instead, with module-relative paths and the
// same stable ordering (file, line, column, analyzer), so two runs over
// the same tree are byte-identical. The exit status is 0 when the tree is clean, 1 when
// there are findings, 2 on load errors. A finding is suppressed by an
// in-source directive on the flagged line or the line above it:
//
//	//tdlint:allow <analyzer>[,<analyzer>...] — <reason>
//
// The reason is mandatory; malformed directives are themselves
// findings, and — when the full suite runs — so are directives that no
// longer suppress anything, so stale exemptions rot loudly. Test files
// are never analyzed — the enforced invariants bind the simulator, not
// its tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tdram/internal/analysis"
	"tdram/internal/analysis/copydrift"
	"tdram/internal/analysis/determinism"
	"tdram/internal/analysis/hookguard"
	"tdram/internal/analysis/locksafe"
	"tdram/internal/analysis/poollife"
	"tdram/internal/analysis/tickconv"
)

// analyzers returns the full tdlint suite. main_test.go pins this
// registry: exactly these six, in this order.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		hookguard.Analyzer,
		tickconv.Analyzer,
		copydrift.Analyzer,
		poollife.Analyzer,
		locksafe.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("tdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	dir := fs.String("C", ".", "change to `dir` before resolving package patterns")
	asJSON := fs.Bool("json", false, "emit findings as a JSON document on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tdlint [-only names] [-C dir] [-json] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the tdram static-analysis suite over the packages (default ./...).\n\nAnalyzers:\n")
		for _, a := range analyzers() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analyzers()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "tdlint: unknown analyzer %q\n", name)
				return 2
			}
			suite = append(suite, a)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "tdlint: %v\n", err)
		return 2
	}
	suiteNames := make(map[string]bool, len(suite))
	for _, a := range suite {
		suiteNames[a.Name] = true
	}
	var all []analysis.Finding
	for _, pkg := range pkgs {
		findings, err := pkg.Run(suite...)
		if err != nil {
			fmt.Fprintf(stderr, "tdlint: %v\n", err)
			return 2
		}
		all = append(all, findings...)
		all = append(all, pkg.Allow.Malformed...)
		if *only == "" {
			// Unused-allow auditing needs the full suite: a directive for
			// an analyzer that did not run is not stale, just unexercised.
			all = append(all, pkg.Allow.Unused(suiteNames)...)
		}
	}
	sortFindings(all)
	relativizeFindings(all, *dir)

	if *asJSON {
		if err := writeJSON(stdout, all); err != nil {
			fmt.Fprintf(stderr, "tdlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range all {
			fmt.Fprintln(stdout, f)
			for _, fix := range f.Fixes {
				fmt.Fprintf(stdout, "\t%s\n", fix)
			}
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "tdlint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// sortFindings orders findings by (file, line, column, analyzer,
// message) so both output modes are stable across runs.
func sortFindings(fs []analysis.Finding) {
	sort.Slice(fs, func(i, j int) bool {
		pi, pj := fs[i].Pos, fs[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Message < fs[j].Message
	})
}

// relativizeFindings rewrites absolute file paths relative to the run
// directory (forward slashes), so the output does not leak the
// checkout location and diffs cleanly across machines.
func relativizeFindings(fs []analysis.Finding, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for i := range fs {
		if rel, err := filepath.Rel(abs, fs[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			fs[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// jsonFinding is one row of the -json document.
type jsonFinding struct {
	Analyzer string   `json:"analyzer"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Message  string   `json:"message"`
	Fixes    []string `json:"fixes,omitempty"`
}

func writeJSON(w *os.File, fs []analysis.Finding) error {
	doc := struct {
		Count    int           `json:"count"`
		Findings []jsonFinding `json:"findings"`
	}{Count: len(fs), Findings: make([]jsonFinding, 0, len(fs))}
	for _, f := range fs {
		doc.Findings = append(doc.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
			Fixes:    f.Fixes,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
