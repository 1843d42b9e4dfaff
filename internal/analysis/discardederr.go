package analysis

import (
	"go/ast"
	"go/types"
)

// checkDiscardedErr flags discarded errors from the control-plane
// packages (proto and hpcm by default): assignments of a call's
// error result to _, and bare call statements that drop an error result
// on the floor. Those packages carry the migration protocol — a silently
// dropped Send error is exactly the failure mode the chaos suite exists
// to surface, so dropping one must be explicit (handled, or suppressed
// with a reason).
//
// `defer` and `go` statements are exempt: `defer c.Close()` at teardown
// is idiomatic and has no useful error path.
func checkDiscardedErr(cfg Config, pkg *Package) []Finding {
	var findings []Finding
	flag := func(call *ast.CallExpr, how string) {
		fn := calleeOf(pkg, call)
		if fn == nil || fn.Pkg() == nil || !matchAny(cfg.ErrorPackages, fn.Pkg().Path()) {
			return
		}
		findings = append(findings, Finding{
			Pos:   pkg.Fset.Position(call.Pos()),
			Check: "discardederr",
			Msg:   "error returned by " + qualifiedName(fn) + " is " + how,
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range stmt.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					if errorResultBlanked(pkg, stmt, i, call) {
						flag(call, "assigned to _")
					}
				}
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok && hasErrorResult(pkg, call) {
					flag(call, "dropped by a bare call")
				}
			}
			return true
		})
	}
	return findings
}

// errorResultBlanked reports whether the call's error result lands in a
// blank identifier of the assignment. i is the call's index in stmt.Rhs:
// for the 1:1 form each RHS maps to one LHS; for the multi-value form
// (one call, many LHS) results map positionally.
func errorResultBlanked(pkg *Package, stmt *ast.AssignStmt, i int, call *ast.CallExpr) bool {
	if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
		tuple, ok := pkg.Info.Types[call].Type.(*types.Tuple)
		if !ok {
			return false
		}
		for j := 0; j < tuple.Len() && j < len(stmt.Lhs); j++ {
			if isErrorType(tuple.At(j).Type()) && isIdent(stmt.Lhs[j], "_") {
				return true
			}
		}
		return false
	}
	return i < len(stmt.Lhs) && isIdent(stmt.Lhs[i], "_") &&
		isErrorType(pkg.Info.Types[call].Type)
}

// hasErrorResult reports whether any of the call's results is an error.
func hasErrorResult(pkg *Package, call *ast.CallExpr) bool {
	t := pkg.Info.Types[call].Type
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for j := 0; j < tuple.Len(); j++ {
			if isErrorType(tuple.At(j).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// calleeOf resolves the called function or method, if statically known.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

// qualifiedName renders a function as pkg.Func or (pkg.Type).Method.
func qualifiedName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return "(" + named.Obj().Pkg().Name() + "." + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
