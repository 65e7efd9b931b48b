// Package analysistest runs an analyzer over GOPATH-style fixture
// packages and checks its diagnostics against in-source expectations,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <dir>/src/<importpath>/. A line expecting one or
// more diagnostics carries a trailing comment of Go string literals,
// each a regexp the diagnostic message must match:
//
//	rand.Intn(6) // want `math/rand global`
//
// Every diagnostic must be matched by a want on its line and every want
// must be matched by a diagnostic; //tdlint:allow filtering is applied
// before matching, so fixtures exercise the escape hatch by carrying an
// allow comment and no want.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tdram/internal/analysis"
)

// Run applies analyzer a to each fixture package (by import path,
// relative to dir/src) and reports expectation mismatches on t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	env, err := envFor(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, path := range pkgs {
		runOne(t, env, a, path)
	}
}

// Findings applies analyzer a to one fixture package and returns the
// findings after //tdlint:allow filtering, without matching want
// expectations. Seeded-mutation tests use it: copy real source into a
// fixture, delete one load-bearing line, and assert the analyzer
// notices.
func Findings(t *testing.T, dir string, a *analysis.Analyzer, path string) []analysis.Finding {
	t.Helper()
	env, err := envFor(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	tpkg, files, info, err := env.check(path)
	if err != nil {
		t.Fatalf("%v", err)
	}
	env.memo[path] = tpkg
	pkg := &analysis.Package{
		ImportPath: path,
		Dir:        filepath.Join(env.src, path),
		Fset:       env.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Allow:      analysis.BuildAllowIndex(env.fset, files),
	}
	findings, err := pkg.Run(a)
	if err != nil {
		t.Fatalf("analysistest: running %s on %s: %v", a.Name, path, err)
	}
	return findings
}

// Mutate is the seeded-mutation harness: it proves an analyzer guards
// real code. It copies the non-test Go sources of the real package in
// dir (relative to the calling test) into a fixture package of the same
// base name, checks that analyzer a finds nothing in the copy, replaces
// the one occurrence of from in file with to, and returns a's findings
// on the mutated copy. The fixture's imports of the module's packages
// resolve through export data, so the copy type-checks as the real
// package does.
func Mutate(t *testing.T, a *analysis.Analyzer, dir, file, from, to string) []analysis.Finding {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture root lives next to the caller's testdata/src so the go
	// command still resolves export data from inside the module.
	root, err := os.MkdirTemp(TestData(), "tmp-mutation-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(root) })
	pkg := filepath.Base(dir)
	dst := filepath.Join(root, "src", pkg)
	if err := os.MkdirAll(dst, 0o777); err != nil {
		t.Fatal(err)
	}
	var src string
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == file {
			src = string(data)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if n := strings.Count(src, from); n != 1 {
		t.Fatalf("mutation target %q occurs %d times in %s/%s, want once", from, n, dir, file)
	}
	if fs := Findings(t, root, a, pkg); len(fs) != 0 {
		t.Fatalf("the unmutated copy of %s is not clean:\n%s", dir, Render(fs))
	}
	mutated := strings.Replace(src, from, to, 1)
	if err := os.WriteFile(filepath.Join(dst, file), []byte(mutated), 0o666); err != nil {
		t.Fatal(err)
	}
	return Findings(t, root, a, pkg)
}

// Render formats findings one per indented line, for test failures.
func Render(fs []analysis.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}

// TestData returns the canonical fixture root for the caller's package:
// the testdata directory next to the test source.
func TestData() string {
	d, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return d
}

// env caches per-fixture-root state: the FileSet shared by every package
// checked under that root, the importer, and checked-package memos.
type env struct {
	src  string // <dir>/src
	fset *token.FileSet
	std  types.Importer
	memo map[string]*types.Package
}

var (
	envMu   sync.Mutex
	envMemo = make(map[string]*env)
)

func envFor(dir string) (*env, error) {
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envMemo[dir]; ok {
		return e, nil
	}
	src := filepath.Join(dir, "src")
	ext, err := externalImports(src)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	e := &env{src: src, fset: fset, memo: make(map[string]*types.Package)}
	if len(ext) > 0 {
		exports, err := analysis.ListExports(dir, ext...)
		if err != nil {
			return nil, err
		}
		e.std = analysis.ExportImporter(fset, exports)
	}
	envMemo[dir] = e
	return e, nil
}

// externalImports scans every fixture file under src and returns the
// imports that do not resolve to fixture packages — the set whose export
// data must come from the go command.
func externalImports(src string) ([]string, error) {
	seen := make(map[string]bool)
	var ext []string
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[p] {
				continue
			}
			seen[p] = true
			if fi, err := os.Stat(filepath.Join(src, p)); err == nil && fi.IsDir() {
				continue // fixture-local package
			}
			ext = append(ext, p)
		}
		return nil
	})
	sort.Strings(ext)
	return ext, err
}

// Import resolves fixture-local packages from source and everything else
// through export data, memoizing both.
func (e *env) Import(path string) (*types.Package, error) {
	if pkg, ok := e.memo[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(e.src, path)
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		pkg, _, _, err := e.check(path)
		if err != nil {
			return nil, err
		}
		e.memo[path] = pkg
		return pkg, nil
	}
	if e.std == nil {
		return nil, fmt.Errorf("analysistest: no importer for %q", path)
	}
	return e.std.Import(path)
}

// check parses and type-checks fixture package path with full info.
func (e *env) check(path string) (*types.Package, []*ast.File, *types.Info, error) {
	dir := filepath.Join(e.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(e.fset, filepath.Join(dir, ent.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("analysistest: no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: e,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(path, e.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, nil, nil, fmt.Errorf("analysistest: type-checking %s: %v", path, typeErrs)
	}
	return pkg, files, info, nil
}

func runOne(t *testing.T, e *env, a *analysis.Analyzer, path string) {
	t.Helper()
	tpkg, files, info, err := e.check(path)
	if err != nil {
		t.Errorf("%v", err)
		return
	}
	e.memo[path] = tpkg

	pkg := &analysis.Package{
		ImportPath: path,
		Dir:        filepath.Join(e.src, path),
		Fset:       e.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Allow:      analysis.BuildAllowIndex(e.fset, files),
	}
	findings, err := pkg.Run(a)
	if err != nil {
		t.Errorf("analysistest: running %s on %s: %v", a.Name, path, err)
		return
	}
	wants := collectWants(t, e.fset, files)

	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// A want is one expected-diagnostic pattern at a file:line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants extracts `// want "re" ...` expectations from comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range splitLiterals(strings.TrimPrefix(text, "want ")) {
					s, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s: bad want literal %s: %v", pos, lit, err)
						continue
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, s, err)
						continue
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitLiterals splits a space-separated sequence of Go string literals
// ("..." or `...`), tolerating spaces inside the literals.
func splitLiterals(s string) []string {
	var lits []string
	for i := 0; i < len(s); {
		switch s[i] {
		case ' ', '\t':
			i++
		case '"', '`':
			q := s[i]
			j := i + 1
			for j < len(s) {
				if s[j] == '\\' && q == '"' {
					j += 2
					continue
				}
				if s[j] == q {
					break
				}
				j++
			}
			if j >= len(s) {
				lits = append(lits, s[i:])
				return lits
			}
			lits = append(lits, s[i:j+1])
			i = j + 1
		default:
			// Not a literal: stop (trailing prose after wants).
			return lits
		}
	}
	return lits
}
