package analysis

import (
	"go/ast"
	"go/types"
)

// checkMutexHeld is a heuristic detector for blocking work inside a
// critical section: while a sync.Mutex / sync.RWMutex is held (walkHeld's
// tracking; deferred unlocks hold to the end of the function) it flags
//
//   - channel send statements,
//   - calls into the net package, and
//   - calls to methods of internal/proto types (Conn/Client round trips),
//
// all of which can block indefinitely and, under a registry or monitor
// mutex, stall the whole control plane. The analysis is intra-function,
// so it is a lint, not a proof.
func checkMutexHeld(cfg Config, pkg *Package) []Finding {
	var findings []Finding
	report := func(n ast.Node, msg string) {
		findings = append(findings, Finding{
			Pos:   pkg.Fset.Position(n.Pos()),
			Check: "mutexheld",
			Msg:   msg,
		})
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkHeld(pkg, fd.Name.Name, fd.Body, func(s heldSite) {
				if s.Lock != "" || len(s.Held) == 0 {
					return
				}
				switch n := s.Node.(type) {
				case *ast.SendStmt:
					report(n, "channel send while a mutex is held")
				case *ast.CallExpr:
					if fn := calleeOf(pkg, n); fn != nil && blocking(cfg, pkg, fn) {
						report(n, "call to "+qualifiedName(fn)+" while a mutex is held")
					}
				}
			})
		}
	}
	return findings
}

// blocking reports whether fn belongs to a package whose calls are
// treated as blocking. For methods, proto types (Conn, Client) are the
// interesting surface: a round trip under a registry mutex serialises
// the control plane on the network.
func blocking(cfg Config, pkg *Package, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path == pkg.Path {
		// A blocking package's own helpers under its own mutexes are its
		// business (proto's client serialises the wire by design).
		return false
	}
	return matchAny(cfg.MutexBlockingPackages, path)
}
