// Package analysis is a small, dependency-free static-analysis framework
// modeled on golang.org/x/tools/go/analysis. The container this repository
// builds in has no module proxy access and no vendored x/tools, so the
// subset of the upstream API that tdlint needs — Analyzer, Pass,
// Diagnostic, suggested fixes, and a package loader with full type
// information — is reimplemented here on the standard library alone
// (go/ast, go/types, go/importer, and the go command for package and
// export-data discovery). The analyzer sources are written against the
// upstream API shapes, so migrating to the real x/tools multichecker if
// the dependency ever becomes available is a mechanical import swap.
//
// Two conventions differ deliberately from upstream:
//
//   - Findings are suppressed with an in-source escape hatch,
//     "//tdlint:allow <analyzer> — <reason>", on the flagged line or the
//     line above it (see allow.go). Upstream has no equivalent; the
//     simulator's invariants want documented exemptions, not silence.
//   - Only non-test Go files are loaded and analyzed. The determinism,
//     hook and pool invariants tdlint enforces apply to the simulator
//     proper; tests are free to use wall clocks and unsorted maps.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one analysis: a named rule with documentation
// and a Run function applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //tdlint:allow comments. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail. The first line shows up in `tdlint -help`.
	Doc string

	// Run applies the analyzer to a package, reporting findings via
	// pass.Report / pass.Reportf. The any result exists for API symmetry
	// with upstream; tdlint's analyzers return nil.
	Run func(*Pass) (any, error)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The framework fills it in before Run
	// is invoked; analyzers never assign it.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// SuggestedFixes carries remediation hints. tdlint prints them as
	// indented follow-up lines; it does not rewrite source.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is a human-readable remediation hint.
type SuggestedFix struct {
	Message string
}

// A Finding is a Diagnostic resolved to a concrete position and tagged
// with the analyzer that produced it — the driver-facing result form.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run applies each analyzer to pkg, filters the findings through the
// package's //tdlint:allow index, and returns them sorted by position.
// An analyzer returning an error aborts the run.
func (pkg *Package) Run(analyzers ...*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if pkg.Allow.allows(a.Name, pos) {
				continue
			}
			f := Finding{Analyzer: a.Name, Pos: pos, Message: d.Message}
			for _, fix := range d.SuggestedFixes {
				f.Fixes = append(f.Fixes, fix.Message)
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Pos, out[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// NewInfo returns a types.Info with every map analyzers rely on
// allocated. Shared by the loader and the analysistest harness so both
// populate identical type information.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
