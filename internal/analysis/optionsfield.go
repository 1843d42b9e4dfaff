package analysis

import (
	"go/ast"
	"go/types"
)

// checkOptionsField flags dead configuration. Two kinds of struct are
// configuration:
//
//   - a struct type named Options or Config: its exported fields are
//     write-only for callers, so the declaring package is the one that must
//     consume each knob, and an exported field it never reads is a setting
//     that silently does nothing — the config analogue of a dropped error;
//   - an option target, the struct T of an `Option func(*T)`-shaped type
//     declared beside it (whatever T is called, exported or not): every
//     field must be read, and every field must also be set by the package's
//     non-test code — written inside a function literal of the option type
//     (a With* option) or keyed in a composite literal of T (a constructor's
//     positional arguments). A field only a test or a default fill writes is
//     a setting no caller can reach.
//
// Writes (assignments, composite literal keys) do not count as reads;
// taking a field's address does.
func checkOptionsField(cfg Config, pkg *Package) []Finding {
	// Option types (their signatures) and the structs they point at.
	var optionSigs []types.Type
	targets := make(map[types.Object]bool)
	for _, name := range pkg.Types.Scope().Names() {
		obj := pkg.Types.Scope().Lookup(name)
		if t := optionTarget(obj, pkg.Types); t != nil {
			optionSigs = append(optionSigs, obj.Type().Underlying())
			targets[t] = true
		}
	}

	type fieldInfo struct {
		structName string
		ident      *ast.Ident
		target     bool // of an option target: must also be set
	}
	fields := make(map[types.Object]fieldInfo)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			target := targets[pkg.Info.Defs[ts.Name]]
			if !ok || !target && ts.Name.Name != "Options" && ts.Name.Name != "Config" {
				return false
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if target || name.IsExported() {
						fields[pkg.Info.Defs[name]] = fieldInfo{ts.Name.Name, name, target}
					}
				}
			}
			return false
		})
	}
	if len(fields) == 0 {
		return nil
	}

	// Selector expressions that are pure write targets (the LHS of a plain
	// assignment; compound assignments such as += read too), and the
	// target fields an option literal or a target composite literal sets.
	writes := make(map[*ast.SelectorExpr]bool)
	set := make(map[types.Object]bool)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if !isOptionLit(pkg.Info.Types[n].Type, optionSigs) {
					return true
				}
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if assign, ok := m.(*ast.AssignStmt); ok && assign.Tok.String() == "=" {
						for _, lhs := range assign.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								set[pkg.Info.Uses[sel.Sel]] = true
							}
						}
					}
					return true
				})
			case *ast.CompositeLit:
				if named, ok := pkg.Info.Types[n].Type.(*types.Named); ok && targets[named.Obj()] {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[pkg.Info.Uses[id]] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok.String() == "=" {
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							writes[sel] = true
						}
					}
				}
			}
			return true
		})
	}

	read := make(map[types.Object]bool)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || writes[sel] {
				return true
			}
			selection, ok := pkg.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			if _, tracked := fields[selection.Obj()]; tracked {
				read[selection.Obj()] = true
			}
			return true
		})
	}

	var findings []Finding
	report := func(info fieldInfo, problem string) {
		what := "field "
		if info.ident.IsExported() {
			what = "exported field "
		}
		findings = append(findings, Finding{
			Pos:   pkg.Fset.Position(info.ident.Pos()),
			Check: "optionsfield",
			Msg: what + info.structName + "." + info.ident.Name + " is never " + problem +
				" " + pkg.Types.Name() + " (dead configuration)",
		})
	}
	for obj, info := range fields {
		if !read[obj] {
			report(info, "read by")
		}
		if info.target && !set[obj] {
			report(info, "set by an option of")
		}
	}
	return findings
}

// isOptionLit reports whether a function literal's type is an option
// type's signature — the body of a With* option.
func isOptionLit(t types.Type, optionSigs []types.Type) bool {
	for _, sig := range optionSigs {
		if t != nil && types.Identical(t, sig) {
			return true
		}
	}
	return false
}

// optionTarget returns the struct type T when obj is a named function type
// of shape func(*T), T a struct declared in pkg; nil otherwise.
func optionTarget(obj types.Object, pkg *types.Package) types.Object {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return nil
	}
	sig, ok := tn.Type().Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return nil
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() != pkg {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}
