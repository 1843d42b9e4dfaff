package analysis

import (
	"go/ast"
)

// checkNilReceiver enforces the documented contract of the metrics
// package: components hold optional *Histogram/*Gauge/*Counter/... and
// call them unconditionally, so every exported method with a pointer
// receiver on an exported type must begin with a nil-receiver guard
//
//	if x == nil { ... }
//
// as its first statement. The guard-first shape (rather than mere nil
// safety) is required so the property stays trivially decidable and
// greppable.
func checkNilReceiver(cfg Config, pkg *Package) []Finding {
	if !matchAny(cfg.NilGuardPackages, pkg.Path) {
		return nil
	}
	var findings []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			if !fd.Name.IsExported() {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue // value receiver: a nil pointer cannot reach it
			}
			base, ok := star.X.(*ast.Ident)
			if !ok || !base.IsExported() {
				continue // generic or unexported receiver type
			}
			names := fd.Recv.List[0].Names
			if len(names) == 0 || names[0].Name == "_" {
				findings = append(findings, Finding{
					Pos:   pkg.Fset.Position(fd.Pos()),
					Check: "nilreceiver",
					Msg: "exported method (*" + base.Name + ")." + fd.Name.Name +
						" has an unnamed receiver and so cannot nil-guard it",
				})
				continue
			}
			if !startsWithNilGuard(fd.Body, names[0].Name) {
				findings = append(findings, Finding{
					Pos:   pkg.Fset.Position(fd.Pos()),
					Check: "nilreceiver",
					Msg: "exported method (*" + base.Name + ")." + fd.Name.Name +
						" must begin with a nil-receiver guard (if " + names[0].Name + " == nil)",
				})
			}
		}
	}
	return findings
}

// startsWithNilGuard reports whether the body's first statement is an if
// statement comparing the receiver against nil.
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	cmp, ok := ifStmt.Cond.(*ast.BinaryExpr)
	if !ok || cmp.Op.String() != "==" {
		return false
	}
	return isIdent(cmp.X, recv) && isIdent(cmp.Y, "nil") ||
		isIdent(cmp.X, "nil") && isIdent(cmp.Y, recv)
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
