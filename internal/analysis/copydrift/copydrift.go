// Package copydrift defines an Analyzer that proves fork copy functions
// complete: every field of a copied struct is either covered by its
// designated copier or explicitly annotated as shared.
//
// The simulator's determinism story leans on deep-copy forking — every
// run installs copies of a system.WarmupImage, built from the cache,
// workload and tag-store copiers. Adding a field to one of those
// structs without updating its copier silently breaks bit-identical
// forks, and the goldens only catch it when the new field happens to
// perturb a measured number. This analyzer turns the omission into a
// lint error.
//
// Grammar. A function is designated as the copier for a struct type
// with a doc-comment directive:
//
//	//tdlint:copier Cache
//	func (c *Cache) Clone() *Cache { ... }
//
// A field that the copier deliberately aliases (callback pointers,
// environment handles) is annotated on its declaration — the field's
// line or the line above:
//
//	WriteBack func(uint64) //tdlint:shared WriteBack — rebound by the new owner
//
// The reason after the dash is mandatory, as with //tdlint:allow.
//
// Coverage is computed from the writes the copier performs:
//
//   - dst.f = <expr> covers f: shallowly when <expr> is the same field
//     of another value of the type, deeply otherwise (a call, an
//     allocation, an append).
//   - dst.f[i] = <expr> and &dst.f passed to a call cover f deeply
//     (per-element copy loops, fill-through-pointer helpers).
//   - T{f: v, ...} composite literals cover their keyed (or
//     positional) fields under the same shallow/deep rule.
//   - d := *src, *dst = *src, append(dst[:0], src...) over []T, and
//     copy(dst, src) over []T cover every field, shallowly.
//
// A field with no coverage and no annotation is reported. A field with
// only shallow coverage is reported when its type can share memory with
// the source (pointers, slices, maps, chans, funcs, interfaces —
// recursively through arrays and structs; strings are immutable and
// exempt). An annotation on a field the copier in fact deep-copies is
// reported as stale, so the exemptions rot loudly.
package copydrift

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tdram/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "copydrift",
	Doc: "check that designated struct copiers cover every field\n\n" +
		"For each type named by a //tdlint:copier directive, every field must be\n" +
		"assigned or copied in the designated function(s), deep-copied if it can\n" +
		"share memory, or annotated //tdlint:shared <field> — <reason>.",
	Run: run,
}

const (
	copierPrefix = "tdlint:copier"
	sharedPrefix = "tdlint:shared"
)

// Coverage levels, ordered: a deep copy subsumes a shallow one.
const (
	covNone = iota
	covShallow
	covDeep
)

// sharedAnn is one //tdlint:shared directive on a struct field.
type sharedAnn struct {
	pos  token.Pos
	used bool
}

// target is one struct type with designated copiers.
type target struct {
	obj     *types.TypeName
	st      *types.Struct
	copiers []string       // function names, declaration order
	cover   map[string]int // field name → coverage level
}

func run(pass *analysis.Pass) (any, error) {
	// Pass 1: collect struct declarations, //tdlint:shared annotations,
	// and //tdlint:copier designations from every non-test file.
	targets := make(map[*types.TypeName]*target)
	shared := make(map[*types.TypeName]map[string]*sharedAnn)
	var copiers []*ast.FuncDecl // designated copier decls, with their types
	copierTypes := make(map[*ast.FuncDecl][]*types.TypeName)

	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					obj, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
					if obj == nil {
						continue
					}
					collectShared(pass, obj, st, shared)
				}
			case *ast.FuncDecl:
				names := directiveNames(d.Doc, copierPrefix)
				if names == nil {
					continue
				}
				if len(names) == 0 {
					pass.Reportf(d.Pos(), "malformed tdlint:copier directive: want //tdlint:copier <Type>[,<Type>...]")
					continue
				}
				var resolved []*types.TypeName
				for _, name := range names {
					tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
					if !ok {
						pass.Reportf(d.Pos(), "tdlint:copier names %s, which is not a type in this package", name)
						continue
					}
					st, ok := tn.Type().Underlying().(*types.Struct)
					if !ok {
						pass.Reportf(d.Pos(), "tdlint:copier names %s, which is not a struct type", name)
						continue
					}
					tgt := targets[tn]
					if tgt == nil {
						tgt = &target{obj: tn, st: st, cover: make(map[string]int)}
						targets[tn] = tgt
					}
					tgt.copiers = append(tgt.copiers, d.Name.Name)
					resolved = append(resolved, tn)
				}
				if len(resolved) > 0 {
					copiers = append(copiers, d)
					copierTypes[d] = resolved
				}
			}
		}
	}

	// Pass 2: compute each copier's field coverage for its target types.
	for _, fn := range copiers {
		for _, tn := range copierTypes[fn] {
			coverCopier(pass, fn, targets[tn])
		}
	}

	// Pass 3: report. Deterministic order: types by position.
	var tns []*types.TypeName
	for tn := range targets {
		tns = append(tns, tn)
	}
	for tn := range shared {
		if _, ok := targets[tn]; !ok {
			tns = append(tns, tn)
		}
	}
	sort.Slice(tns, func(i, j int) bool { return tns[i].Pos() < tns[j].Pos() })

	for _, tn := range tns {
		tgt := targets[tn]
		anns := shared[tn]
		if tgt == nil {
			// Annotated fields on a type with no designated copier: the
			// annotation asserts nothing and will not rot loudly.
			for _, name := range sortedAnnNames(anns) {
				pass.Reportf(anns[name].pos, "tdlint:shared on %s.%s, but %s has no //tdlint:copier function", tn.Name(), name, tn.Name())
			}
			continue
		}
		who := strings.Join(tgt.copiers, ", ")
		for i := 0; i < tgt.st.NumFields(); i++ {
			f := tgt.st.Field(i)
			if f.Name() == "_" {
				continue
			}
			ann := anns[f.Name()]
			level := tgt.cover[f.Name()]
			switch {
			case ann != nil && level == covDeep:
				ann.used = true
				pass.Reportf(f.Pos(), "stale tdlint:shared: %s.%s is deep-copied by %s; delete the directive", tn.Name(), f.Name(), who)
			case ann != nil:
				ann.used = true
			case level == covNone:
				pass.Report(analysis.Diagnostic{
					Pos:     f.Pos(),
					Message: fmt.Sprintf("field %s.%s is not copied by designated copier %s", tn.Name(), f.Name(), who),
					SuggestedFixes: []analysis.SuggestedFix{{
						Message: fmt.Sprintf("copy %s in %s, or annotate the field //tdlint:shared %s — <reason>", f.Name(), who, f.Name()),
					}},
				})
			case level == covShallow && sharesMemory(f.Type(), nil):
				pass.Report(analysis.Diagnostic{
					Pos:     f.Pos(),
					Message: fmt.Sprintf("field %s.%s is shallow-copied by %s but its type %s can share memory with the source", tn.Name(), f.Name(), who, f.Type()),
					SuggestedFixes: []analysis.SuggestedFix{{
						Message: fmt.Sprintf("deep-copy %s, or annotate the field //tdlint:shared %s — <reason>", f.Name(), f.Name()),
					}},
				})
			}
		}
		// Annotations naming fields the struct does not have.
		for _, name := range sortedAnnNames(anns) {
			if ann := anns[name]; !ann.used {
				if fieldIndex(tgt.st, name) < 0 {
					pass.Reportf(ann.pos, "tdlint:shared names unknown field %s of %s", name, tn.Name())
				}
			}
		}
	}
	return nil, nil
}

// collectShared records //tdlint:shared annotations from a struct's
// field doc and trailing comments.
func collectShared(pass *analysis.Pass, obj *types.TypeName, st *ast.StructType, shared map[*types.TypeName]map[string]*sharedAnn) {
	record := func(cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, sharedPrefix) {
				continue
			}
			names, reason := analysis.SplitDirective(strings.TrimPrefix(text, sharedPrefix))
			if len(names) == 0 || reason == "" {
				pass.Reportf(c.Pos(), "malformed tdlint:shared directive: want //tdlint:shared <field>[,<field>...] — <reason>")
				continue
			}
			m := shared[obj]
			if m == nil {
				m = make(map[string]*sharedAnn)
				shared[obj] = m
			}
			for _, n := range names {
				if _, dup := m[n]; dup {
					pass.Reportf(c.Pos(), "duplicate tdlint:shared for field %s of %s", n, obj.Name())
					continue
				}
				m[n] = &sharedAnn{pos: c.Pos()}
			}
		}
	}
	for _, field := range st.Fields.List {
		record(field.Doc)
		record(field.Comment)
	}
}

// directiveNames extracts the names from a doc-comment directive line
// with the given prefix. It returns nil when the doc has no such
// directive, and an empty (non-nil) slice when the directive is present
// but names nothing. Indented lines are skipped: a directive quoted in
// prose (as in this package's own documentation) is not a designation.
func directiveNames(doc *ast.CommentGroup, prefix string) []string {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		trimmed := strings.TrimSpace(rest)
		if !strings.HasPrefix(trimmed, prefix) || strings.HasPrefix(rest, "//\t") || strings.HasPrefix(rest, "// \t") {
			continue
		}
		names, _ := analysis.SplitDirective(strings.TrimPrefix(trimmed, prefix))
		if names == nil {
			names = []string{}
		}
		return names
	}
	return nil
}

// coverCopier walks one copier's body and raises tgt.cover for every
// field write it performs.
func coverCopier(pass *analysis.Pass, fn *ast.FuncDecl, tgt *target) {
	if fn.Body == nil {
		return
	}
	T := tgt.obj.Type()

	isT := func(t types.Type) bool {
		if t == nil {
			return false
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		return types.Identical(t, T)
	}
	typeOf := func(e ast.Expr) types.Type { return pass.TypesInfo.TypeOf(e) }

	raise := func(name string, level int) {
		if tgt.cover[name] < level {
			tgt.cover[name] = level
		}
	}
	raiseAll := func(level int) {
		for i := 0; i < tgt.st.NumFields(); i++ {
			raise(tgt.st.Field(i).Name(), level)
		}
	}
	// valueLevel classifies the copied value: reading the same field of
	// another value of the type is a shallow copy; anything else (a
	// call, a fresh allocation, arithmetic) counts as deep.
	valueLevel := func(name string, rhs ast.Expr) int {
		if rhs == nil {
			return covDeep
		}
		if sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok && sel.Sel.Name == name && isT(typeOf(sel.X)) {
			return covShallow
		}
		return covDeep
	}
	// fieldOf returns the field name when e is a selection of a field of
	// T (through a value or pointer).
	fieldOf := func(e ast.Expr) (string, bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || !isT(typeOf(sel.X)) {
			return "", false
		}
		if s := pass.TypesInfo.Selections[sel]; s == nil || s.Kind() != types.FieldVal {
			return "", false
		}
		return sel.Sel.Name, true
	}
	coverWrite := func(lhs, rhs ast.Expr) {
		lhs = ast.Unparen(lhs)
		if name, ok := fieldOf(lhs); ok {
			raise(name, valueLevel(name, rhs))
			return
		}
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			// dst.f[i] = ... — a per-element copy loop.
			if name, ok := fieldOf(l.X); ok {
				raise(name, covDeep)
			}
		case *ast.StarExpr:
			// *dst = *src — a whole-value copy through the pointer.
			if isT(typeOf(l.X)) {
				raiseAll(covShallow)
			}
		default:
			// d := *src (or d := src) — a whole-value copy into a local.
			if isT(typeOf(lhs)) && rhs != nil && isT(typeOf(rhs)) {
				switch ast.Unparen(rhs).(type) {
				case *ast.StarExpr, *ast.Ident, *ast.SelectorExpr:
					raiseAll(covShallow)
				}
			}
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				coverWrite(lhs, rhs)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if len(n.Values) == len(n.Names) {
					rhs = n.Values[i]
				}
				coverWrite(name, rhs)
			}
		case *ast.CompositeLit:
			if !types.Identical(typeOf(n), T) {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						raise(key.Name, valueLevel(key.Name, kv.Value))
					}
					continue
				}
				if i < tgt.st.NumFields() {
					name := tgt.st.Field(i).Name()
					raise(name, valueLevel(name, elt))
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
					switch id.Name {
					case "append":
						// append(dst[:0], src...) over []T replaces dst's
						// contents with a shallow copy of every element.
						if n.Ellipsis.IsValid() && len(n.Args) >= 2 && isSliceOfT(typeOf(n.Args[len(n.Args)-1]), T) {
							raiseAll(covShallow)
						}
					case "copy":
						if len(n.Args) == 2 && isSliceOfT(typeOf(n.Args[0]), T) {
							raiseAll(covShallow)
						}
					}
					return true
				}
			}
			// &dst.f passed to a call: the callee fills the field.
			for _, arg := range n.Args {
				if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
					if name, ok := fieldOf(u.X); ok {
						raise(name, covDeep)
					}
				}
			}
		}
		return true
	})
}

// isSliceOfT reports whether t is []T (elements by value).
func isSliceOfT(t types.Type, T types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && types.Identical(s.Elem(), T)
}

// sharesMemory reports whether a value of type t can alias memory with
// the value it was shallow-copied from: pointers, slices, maps, chans,
// funcs, and interfaces, recursively through arrays and structs.
// Strings are immutable and exempt.
func sharesMemory(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		if seen == nil {
			seen = make(map[types.Type]bool)
		}
		seen[t] = true
		return sharesMemory(u.Elem(), seen)
	case *types.Struct:
		if seen == nil {
			seen = make(map[types.Type]bool)
		}
		seen[t] = true
		for i := 0; i < u.NumFields(); i++ {
			if sharesMemory(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// fieldIndex returns the index of the named field in st, or -1.
func fieldIndex(st *types.Struct, name string) int {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return i
		}
	}
	return -1
}

// sortedAnnNames returns the annotation map's keys in sorted order so
// diagnostics are deterministic.
func sortedAnnNames(anns map[string]*sharedAnn) []string {
	names := make([]string, 0, len(anns))
	for n := range anns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
