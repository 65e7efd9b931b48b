// Package poollife defines an Analyzer that checks the lifecycle of
// freelist-pooled records: no use after release, and no pooled pointer
// escaping into longer-lived state without a generation tag.
//
// The hot paths pool their per-event records (dramcache's retry and
// writeback events, backing's memory requests, mem's Journey records)
// on intrusive freelists: a struct T with a "next *T" link field,
// pushed back by a put/free/release method or by a direct assignment to
// a free/pool-named field. That convention is also how this analyzer
// recognizes a pooled type — no annotation needed.
//
// Two hazards are flagged:
//
//   - Use after release: a read or write of a pooled record after the
//     statement that returned it to the freelist, within the same
//     statement list. The next Get may hand the same memory to an
//     unrelated request; the write corrupts it silently and
//     deterministically-wrongly. Reassigning the variable from the
//     pool again ends the taint.
//
//   - Untagged escape: a pooled pointer stored into a field, a slice
//     (append), an indexed element or a composite-literal field, or
//     passed where the callee's declared parameter is an interface or a
//     type parameter (a scheduled event's argument, a generic queue's
//     Push, a backing fetch's completion argument), when the record type
//     carries no generation field (gen, generation, id, or seq). The
//     stored reference can outlive the record's lease; a generation tag
//     checked at use is the pooled idiom that makes such references safe
//     (see dramcache's retryEv). A call whose parameter is the pooled
//     pointer type itself is a use, not an escape.
//
// //tdlint:allow poollife documents the deliberate exceptions — e.g. a
// record type whose single outstanding reference is the scheduled
// event that will release it.
package poollife

import (
	"go/ast"
	"go/types"
	"strings"

	"tdram/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poollife",
	Doc: "check pooled-record lifecycles: no use after release, no untagged escape\n\n" +
		"A pooled type is a struct with an intrusive freelist link (next *T). After\n" +
		"a record is released (put/free/release/recycle call, or assignment to a\n" +
		"free/pool-named field) it must not be touched; pooled pointers stored into\n" +
		"longer-lived structures, or passed as an interface or type-parameter\n" +
		"argument, need a generation field.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkReleases(pass, fn.Body)
			checkEscapes(pass, fn.Body)
		}
	}
	return nil, nil
}

// pooledType returns the named struct type behind t when t is a pointer
// to a freelist-pooled struct: one with a "next" field of its own
// pointer type and no matching "prev". The singly-linked shape is what
// distinguishes an intrusive freelist from a doubly-linked container
// node (container/list.Element has next AND prev and is not a pool).
func pooledType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	selfLink := func(name string) bool {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() != name {
				continue
			}
			if fp, ok := f.Type().Underlying().(*types.Pointer); ok {
				if fn, ok := fp.Elem().(*types.Named); ok && fn.Obj() == named.Obj() {
					return true
				}
			}
		}
		return false
	}
	if !selfLink("next") || selfLink("prev") {
		return nil
	}
	return named
}

// genTagged reports whether the pooled struct carries a generation
// field — the tag that makes an outstanding reference checkable.
func genTagged(named *types.Named) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		switch strings.ToLower(st.Field(i).Name()) {
		case "gen", "generation", "id", "seq":
			return true
		}
	}
	return false
}

// freeish matches the freelist-head naming convention.
func freeish(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "free") || strings.Contains(l, "pool")
}

// releaseName matches the conventional names of functions that return a
// record to its pool.
func releaseName(name string) bool {
	l := strings.ToLower(name)
	for _, p := range []string{"put", "free", "release", "recycle"} {
		if strings.HasPrefix(l, p) {
			return true
		}
	}
	return false
}

// checkReleases walks every statement list in body and, for each
// statement that releases a pooled variable, flags any use of that
// variable in the statements that follow it.
func checkReleases(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, stmt := range list {
			for _, v := range releasedVars(pass, stmt) {
				flagUseAfter(pass, v, list[i+1:])
			}
		}
		return true
	})
}

// releasedVars returns the pooled variables that stmt returns to a
// freelist: arguments of a put/free/release/recycle call, or the value
// assigned to a free/pool-named field of pointer type.
func releasedVars(pass *analysis.Pass, stmt ast.Stmt) []*types.Var {
	var out []*types.Var
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return nil
		}
		fn := analysis.FuncOf(pass.TypesInfo, call.Fun)
		if fn == nil || !releaseName(fn.Name()) {
			return nil
		}
		for _, arg := range call.Args {
			if v := pooledIdent(pass, arg); v != nil {
				out = append(out, v)
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			if len(s.Rhs) != len(s.Lhs) {
				break
			}
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || !freeish(sel.Sel.Name) {
				continue
			}
			if v := pooledIdent(pass, s.Rhs[i]); v != nil {
				out = append(out, v)
			}
		}
	}
	return out
}

// pooledIdent returns the variable behind e when e is a plain
// identifier of pooled-pointer type.
func pooledIdent(pass *analysis.Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || pooledType(v.Type()) == nil {
		return nil
	}
	return v
}

// flagUseAfter reports the first use of v in rest, stopping early if v
// is reassigned (the variable then names a fresh record).
func flagUseAfter(pass *analysis.Pass, v *types.Var, rest []ast.Stmt) {
	for _, stmt := range rest {
		if reassigns(pass, stmt, v) {
			return
		}
		var use *ast.Ident
		ast.Inspect(stmt, func(n ast.Node) bool {
			if use != nil {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
				use = id
			}
			return true
		})
		if use != nil {
			pass.Reportf(use.Pos(), "pooled record %s is used after being released to its freelist", v.Name())
			return
		}
	}
}

// reassigns reports whether stmt assigns a new value to v itself (not
// to a field of it).
func reassigns(pass *analysis.Pass, stmt ast.Stmt, v *types.Var) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == v || pass.TypesInfo.Defs[id] == v {
				return true
			}
		}
	}
	return false
}

// checkEscapes flags pooled pointers stored into longer-lived
// structures — fields, slice appends, indexed elements, composite
// literals, interface and type-parameter arguments — when the record
// type has no generation tag.
func checkEscapes(pass *analysis.Pass, body *ast.BlockStmt) {
	report := func(pos ast.Node, named *types.Named, how string) {
		if genTagged(named) {
			return
		}
		pass.Report(analysis.Diagnostic{
			Pos: pos.Pos(),
			Message: "pooled *" + named.Obj().Name() + " " + how +
				" without a generation tag; a stale reference may touch a recycled record",
			SuggestedFixes: []analysis.SuggestedFix{{
				Message: "add a gen/seq field to " + named.Obj().Name() + " and check it at use, or //tdlint:allow poollife with the ownership argument",
			}},
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				named := pooledType(pass.TypesInfo.TypeOf(n.Rhs[i]))
				if named == nil {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					// Freelist heads and the intrusive link itself are the
					// pool's own plumbing, not escapes.
					if freeish(l.Sel.Name) {
						continue
					}
					if l.Sel.Name == "next" && pooledType(pass.TypesInfo.TypeOf(l.X)) != nil {
						continue
					}
					if s := pass.TypesInfo.Selections[l]; s != nil && s.Kind() == types.FieldVal {
						report(n.Rhs[i], named, "stored into field "+l.Sel.Name)
					}
				case *ast.IndexExpr:
					report(n.Rhs[i], named, "stored into an element")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin && id.Name == "append" {
					for _, arg := range n.Args[1:] {
						if named := pooledType(pass.TypesInfo.TypeOf(arg)); named != nil {
							report(arg, named, "appended to a slice")
						}
					}
					return true
				}
			}
			sig, name := declaredSignature(pass, n)
			if sig == nil {
				return true
			}
			for i, arg := range n.Args {
				// A type parameter's underlying type is its constraint
				// interface, so IsInterface covers both.
				named := pooledType(pass.TypesInfo.TypeOf(arg))
				if named != nil && types.IsInterface(paramType(sig, i)) {
					report(arg, named, "passed to "+name)
				}
			}
		case *ast.CompositeLit:
			lit := pass.TypesInfo.TypeOf(n)
			for _, elt := range n.Elts {
				v, field := elt, ""
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						field = id.Name
					}
				}
				named := pooledType(pass.TypesInfo.TypeOf(v))
				if named == nil {
					continue
				}
				// A record's own freelist link is the pool's plumbing.
				if field == "next" && pooledType(types.NewPointer(lit)) != nil {
					continue
				}
				if field != "" {
					report(v, named, "placed in field "+field+" of a composite literal")
				} else {
					report(v, named, "placed in a composite literal")
				}
			}
		}
		return true
	})
}

// declaredSignature returns the signature a call's arguments bind to as
// declared — for an instantiated generic function or method, the
// generic one, whose parameters are still type parameters — and the
// callee's name. Conversions and builtins have none.
func declaredSignature(pass *analysis.Pass, call *ast.CallExpr) (*types.Signature, string) {
	if fn := analysis.FuncOf(pass.TypesInfo, call.Fun); fn != nil {
		sig, _ := fn.Origin().Type().(*types.Signature)
		return sig, fn.Name()
	}
	tv := pass.TypesInfo.Types[call.Fun]
	if !tv.IsValue() {
		return nil, "" // a conversion or a builtin
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig, types.ExprString(call.Fun)
}

// paramType returns the declared type of the parameter argument i binds
// to; a variadic tail binds its element type.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if n := params.Len(); sig.Variadic() && i >= n-1 {
		return params.At(n - 1).Type().(*types.Slice).Elem()
	}
	return params.At(i).Type()
}
