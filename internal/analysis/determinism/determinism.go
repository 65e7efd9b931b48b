// Package determinism flags sources of run-to-run nondeterminism in
// simulator packages: wall-clock reads, draws from math/rand's shared
// global source, and map iteration feeding order-sensitive sinks.
//
// The reproduction's comparisons (the paper's Figs. 5–7, the design
// matrix, the kernel goldens) are asserted bit-identical across designs
// and job counts; that only holds if no code path observes the host
// clock, the process-global RNG, or Go's randomized map iteration
// order. Map iteration is only flagged when the loop body emits to
// something order-sensitive — appending to a slice that is never
// sorted, writing through a CSV writer / JSON encoder / string builder
// / formatted-print call, or accumulating floats (whose addition is not
// associative, so map order changes the low bits). Appends whose target
// is later passed to sort or slices are the blessed sorted-keys idiom
// and are not flagged.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tdram/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global math/rand draws, and unsorted map iteration feeding output\n\n" +
		"Simulator packages must be bit-identical run to run: no time.Now/time.Since,\n" +
		"no math/rand global-source draws, and no map-range bodies that append without\n" +
		"a later sort, write to CSV/JSON/string-builder/print sinks, or accumulate floats.",
	Run: run,
}

// randConstructors are the math/rand entry points that build a locally
// seeded generator — the fix, not the problem.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// fmtPrinters are the fmt functions that emit formatted output.
var fmtPrinters = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, call)
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[rng.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						checkMapRange(pass, fd.Body, rng)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkCall flags wall-clock reads and global-source math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.FuncOf(pass.TypesInfo, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	switch fn.Pkg().Path() {
	case "time":
		if sig != nil && sig.Recv() == nil && (fn.Name() == "Now" || fn.Name() == "Since") {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock and is nondeterministic across runs; simulated time must come from sim.Tick",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if sig != nil && sig.Recv() == nil && !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"math/rand global %s draws from the shared process-wide source; use a locally seeded generator (rand.New(rand.NewSource(seed)))",
				fn.Name())
		}
	}
}

// checkMapRange flags order-sensitive sinks inside a range-over-map
// body. encl is the enclosing function body, scanned for the
// sorted-afterwards exemption.
func checkMapRange(pass *analysis.Pass, encl *ast.BlockStmt, rng *ast.RangeStmt) {
	// First pass: find `s = append(s, ...)` assignments so the append
	// can be tied to its destination variable (claimed appends are not
	// re-reported by the generic walk below).
	claimed := make(map[*ast.CallExpr]bool)
	type pendingAppend struct {
		target *types.Var
		pos    token.Pos
	}
	var appends []pendingAppend
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.TypesInfo, call) {
				continue
			}
			claimed[call] = true
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if v, ok := objOf(pass.TypesInfo, id).(*types.Var); ok {
					appends = append(appends, pendingAppend{target: v, pos: call.Pos()})
					continue
				}
			}
			// Append into something unnameable: cannot prove a later
			// sort, so flag it outright.
			reportAppend(pass, call.Pos(), "the result")
		}
		return true
	})
	for _, pa := range appends {
		if !sortedLater(pass.TypesInfo, encl, rng, pa.target) {
			reportAppend(pass, pa.pos, pa.target.Name())
		}
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkFloatAccum(pass, n)
		case *ast.CallExpr:
			if isBuiltinAppend(pass.TypesInfo, n) {
				if !claimed[n] {
					reportAppend(pass, n.Pos(), "the result")
				}
				return true
			}
			if sink := sinkName(pass.TypesInfo, n); sink != "" {
				pass.Reportf(n.Pos(),
					"map iteration feeds %s: iteration order is randomized, so the output is nondeterministic; iterate sorted keys instead",
					sink)
			}
		}
		return true
	})
}

func reportAppend(pass *analysis.Pass, pos token.Pos, target string) {
	pass.Reportf(pos,
		"appending to %s while ranging over a map without sorting afterwards: element order is randomized across runs; sort the slice or iterate sorted keys",
		target)
}

// checkFloatAccum flags compound floating-point accumulation, whose
// result depends on map iteration order (float addition is not
// associative).
func checkFloatAccum(pass *analysis.Pass, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	for _, lhs := range as.Lhs {
		tv, ok := pass.TypesInfo.Types[lhs]
		if !ok {
			continue
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			pass.Reportf(as.Pos(),
				"floating-point accumulation in map-iteration order is nondeterministic (float addition is not associative); iterate sorted keys or accumulate integers")
			return
		}
	}
}

// sinkName classifies a call as an order-sensitive output sink.
func sinkName(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.FuncOf(info, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	recvNamed := ""
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			recvNamed = named.Obj().Name()
		}
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "fmt":
		if recvNamed == "" && fmtPrinters[name] {
			return "fmt." + name
		}
	case "encoding/csv":
		if recvNamed == "Writer" && (name == "Write" || name == "WriteAll") {
			return "a csv.Writer"
		}
	case "encoding/json":
		if recvNamed == "Encoder" && name == "Encode" {
			return "a json.Encoder"
		}
	case "strings":
		if recvNamed == "Builder" && strings.HasPrefix(name, "Write") {
			return "a strings.Builder"
		}
	case "bytes":
		if recvNamed == "Buffer" && strings.HasPrefix(name, "Write") {
			return "a bytes.Buffer"
		}
	}
	return ""
}

// sortedLater reports whether v is passed (possibly nested in a
// conversion or address-of) to a sort or slices function positioned
// after the range statement rng in the enclosing function body — the
// sorted-keys idiom. A sort above the loop orders nothing the loop
// appends.
func sortedLater(info *types.Info, encl *ast.BlockStmt, rng *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := analysis.FuncOf(info, call.Fun)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if usesVar(info, arg, v) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// usesVar reports whether expr references v anywhere.
func usesVar(info *types.Info, expr ast.Expr, v *types.Var) bool {
	used := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objOf(info, id) == v {
			used = true
			return false
		}
		return !used
	})
	return used
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// objOf resolves an identifier through both Uses and Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
