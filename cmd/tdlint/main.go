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
//	go run ./cmd/tdlint -sarif ./... > findings.sarif
//
// Findings print as file:line:col: message (analyzer), one per line,
// followed by indented remediation hints. -json emits them as a single
// machine-readable document instead, and -sarif as a SARIF 2.1.0 log;
// both use module-relative paths and the same stable ordering (file,
// line, column, analyzer), so two runs over the same tree are
// byte-identical. The exit status is 0 when the tree is clean, 1 when
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
	asSARIF := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tdlint [-only names] [-C dir] [-json|-sarif] [packages]\n\n")
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
	if *asJSON && *asSARIF {
		fmt.Fprintf(stderr, "tdlint: -json and -sarif are mutually exclusive\n")
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

	switch {
	case *asJSON:
		if err := writeJSON(stdout, all); err != nil {
			fmt.Fprintf(stderr, "tdlint: %v\n", err)
			return 2
		}
	case *asSARIF:
		if err := writeSARIF(stdout, suite, all); err != nil {
			fmt.Fprintf(stderr, "tdlint: %v\n", err)
			return 2
		}
	default:
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
// message) so every output mode is stable across runs.
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
// directory (forward slashes), so the machine-readable outputs do not
// leak the checkout location and diff cleanly across machines.
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

// Minimal SARIF 2.1.0 shapes — one run, one rule per analyzer, one
// result per finding.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}
type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}
type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}
type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}
type sarifRule struct {
	ID        string    `json:"id"`
	ShortDesc sarifText `json:"shortDescription"`
}
type sarifText struct {
	Text string `json:"text"`
}
type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}
type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}
type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}
type sarifArtifact struct {
	URI string `json:"uri"`
}
type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func writeSARIF(w *os.File, suite []*analysis.Analyzer, fs []analysis.Finding) error {
	rules := make([]sarifRule, 0, len(suite)+1)
	for _, a := range suite {
		rules = append(rules, sarifRule{
			ID:        a.Name,
			ShortDesc: sarifText{Text: strings.SplitN(a.Doc, "\n", 2)[0]},
		})
	}
	// Directive-hygiene findings (malformed or unused tdlint:allow) are
	// attributed to the driver itself.
	rules = append(rules, sarifRule{ID: "tdlint", ShortDesc: sarifText{Text: "tdlint directive hygiene"}})
	results := make([]sarifResult, 0, len(fs))
	for _, f := range fs {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.Pos.Filename},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "tdlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
