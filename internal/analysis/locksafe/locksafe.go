// Package locksafe defines an Analyzer that enforces the serving
// tier's lock discipline: struct fields guarded by a mu sibling are
// only touched with the mutex held, and atomic fields are only touched
// atomically.
//
// Scope: packages whose import path ends in "serve", "service" or "lru"
// — the wall-clock, multi-goroutine side of the tree, and the cache
// that holds tdserve's results and warmup images. The simulator proper
// is single-goroutine by construction and stays out of scope.
//
// The guarded-field convention mirrors the codebase's struct layout:
// in a struct with a field named mu of type sync.Mutex or sync.RWMutex,
// every field declared after mu is guarded by it. Fields that must not
// be guarded (immutable after construction, self-synchronized channels,
// atomics) belong above mu. A guarded field may be accessed:
//
//   - in a statement dominated by <base>.mu.Lock() or .RLock() in an
//     enclosing statement list, with no intervening .Unlock()/.RUnlock()
//     (a deferred Unlock does not end the critical section);
//   - in a function whose name ends in "Locked" (the caller-holds-mu
//     convention, e.g. publishLocked);
//   - on a value the function itself constructed from a composite
//     literal (the constructor exemption: nothing else can see it yet).
//
// A function literal is a boundary: it may run on another goroutine, so
// a lock held where the closure is created proves nothing where it
// runs — the closure needs its own Lock.
//
// Fields of sync/atomic types (atomic.Int64, atomic.Uint64, ...) are
// checked everywhere in the scoped packages: the only legal access is
// calling a method on the field (Load/Store/Add/...); copying it or
// taking its address defeats the atomicity.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tdram/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "check mu-guarded and atomic struct fields in the serving packages\n\n" +
		"In internal/serve, internal/obs/service and internal/lru, fields declared after a mu\n" +
		"sync.Mutex sibling must be accessed under <base>.mu.Lock() domination,\n" +
		"from a *Locked function, or on a freshly-constructed value; sync/atomic\n" +
		"fields must only be accessed through their methods.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	base := analysis.PathBase(pass.Pkg.Path())
	if base != "serve" && base != "service" && base != "lru" {
		return nil, nil
	}
	fields := classifyFields(pass)
	if len(fields.guarded) == 0 && len(fields.atomics) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, fields)
		}
	}
	return nil, nil
}

// fieldSets classifies the package's struct fields: guarded holds the
// mu-guarded ones, atomics the sync/atomic-typed ones, and owner names
// the declaring struct for diagnostics.
type fieldSets struct {
	guarded map[*types.Var]bool
	atomics map[*types.Var]bool
	owner   map[*types.Var]string
}

// classifyFields scans the package's struct types and returns the
// mu-guarded fields (declared after a mu sync.Mutex/RWMutex sibling,
// atomics excluded) and the sync/atomic-typed fields.
func classifyFields(pass *analysis.Pass) fieldSets {
	fields := fieldSets{
		guarded: make(map[*types.Var]bool),
		atomics: make(map[*types.Var]bool),
		owner:   make(map[*types.Var]string),
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		muIndex := -1
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isAtomicType(f.Type()) {
				fields.atomics[f] = true
				fields.owner[f] = tn.Name()
				continue
			}
			if f.Name() == "mu" && isMutexType(f.Type()) {
				muIndex = i
				continue
			}
			if muIndex >= 0 {
				fields.guarded[f] = true
				fields.owner[f] = tn.Name()
			}
		}
	}
	return fields
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isAtomicType reports whether t is a named type from sync/atomic.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, fields fieldSets) {
	callerHolds := strings.HasSuffix(fn.Name.Name, "Locked")
	fresh := constructedVars(pass, fn.Body)

	analysis.WithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		f, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		// A field of an instantiated generic struct, such as a method's
		// receiver, is a distinct Var when its type uses a type
		// parameter; classifyFields saw the declared one.
		f = f.Origin()
		desc := fields.owner[f] + "." + f.Name()
		switch {
		case fields.atomics[f]:
			if !isMethodReceiver(sel, stack) {
				pass.Reportf(sel.Sel.Pos(), "atomic field %s accessed non-atomically; use its Load/Store/Add methods", desc)
			}
		case fields.guarded[f]:
			if callerHolds || isFresh(pass, sel.X, fresh) {
				return true
			}
			if !lockHeld(pass, sel, stack) {
				pass.Report(analysis.Diagnostic{
					Pos:     sel.Sel.Pos(),
					Message: "field " + desc + " is guarded by mu but accessed without holding it",
					SuggestedFixes: []analysis.SuggestedFix{{
						Message: "lock " + types.ExprString(sel.X) + ".mu around the access, move the access into a *Locked helper, or move the field above mu if it is self-synchronized",
					}},
				})
			}
		}
		return true
	})
}

// constructedVars returns the variables the function initializes from a
// composite literal — values no other goroutine can reach yet.
func constructedVars(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	fromLit := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		_, ok := e.(*ast.CompositeLit)
		return ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || !fromLit(n.Rhs[i]) {
					continue
				}
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					fresh[obj] = true
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					fresh[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) && fromLit(n.Values[i]) {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

// isFresh reports whether the access base is a constructor-exempt
// variable.
func isFresh(pass *analysis.Pass, base ast.Expr, fresh map[types.Object]bool) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	return fresh[pass.TypesInfo.Uses[id]]
}

// isMethodReceiver reports whether sel is immediately used as the
// receiver of a method call: parent is a SelectorExpr selecting the
// method, grandparent the call.
func isMethodReceiver(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	parent, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	if !ok || parent.X != sel {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return ok && call.Fun == parent
}

// lockHeld reports whether the access is dominated by
// <base>.mu.Lock()/.RLock() with no intervening Unlock. It scans each
// enclosing statement list linearly over the statements preceding the
// access; a function literal on the way up is a boundary (the closure
// may run on another goroutine).
func lockHeld(pass *analysis.Pass, sel *ast.SelectorExpr, stack []ast.Node) bool {
	baseStr := types.ExprString(ast.Unparen(sel.X))
	child := ast.Node(sel)
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			if held, known := scanList(a.List, child, baseStr); known {
				return held
			}
		case *ast.CaseClause:
			if held, known := scanList(a.Body, child, baseStr); known {
				return held
			}
		case *ast.CommClause:
			if held, known := scanList(a.Body, child, baseStr); known {
				return held
			}
		}
		child = stack[i]
	}
	return false
}

// scanList scans the statements of one list that precede the one
// containing child, tracking the last Lock/Unlock on base's mu. known
// is false when the list says nothing about the lock.
func scanList(list []ast.Stmt, child ast.Node, baseStr string) (held, known bool) {
	for _, stmt := range list {
		if stmt == child {
			break
		}
		switch op := muCallIn(stmt, baseStr); op {
		case "Lock", "RLock":
			held, known = true, true
		case "Unlock", "RUnlock":
			held, known = false, true
		}
	}
	return held, known
}

// muCallIn returns the mutex method name when stmt is exactly
// <base>.mu.<op>() for the given base. Deferred unlocks do not end the
// critical section and are ignored.
func muCallIn(stmt ast.Stmt, baseStr string) string {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	m, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch m.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return ""
	}
	mu, ok := ast.Unparen(m.X).(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != "mu" {
		return ""
	}
	if types.ExprString(ast.Unparen(mu.X)) != baseStr {
		return ""
	}
	return m.Sel.Name
}
