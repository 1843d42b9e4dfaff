package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkEventCase guards the event vocabularies a runner can silently
// drop: a new faults.Kind, job state, or migration phase added without
// updating every switch is exactly the bug class that let a fresh event
// kind slip through a driver. Three switch shapes are checked:
//
//  1. A switch whose tag is a named constant type (string or integer
//     underlying) declared in an enum package (Config.EnumPackages, or
//     any package under analysis) must cover every declared constant of
//     that type, by value, or carry an explicit default.
//
//  2. A switch over a plain string that references two or more members
//     of one top-level const block (an enum-like family such as the
//     migration Phase* or scenario Fault* constants) must cover the
//     whole block, by value, or carry a default. Referencing a single
//     member is treated as an ordinary comparison, not an enum dispatch.
//
//  3. A type switch over an empty interface whose cases mention any of
//     the configured event payload types (Config.EventPayloadTypes) must
//     cover all of them or carry a default: a metrics.Event fan-out that
//     forgets a payload drops a whole event class.
//
// Coverage is by constant value, so a literal "crash-host" covers the
// FaultCrashHost member. Exhaustive switches need no default; adding one
// anyway is always accepted as the explicit statement "other kinds are
// ignored here".
func checkEventCase(cfg Config, mod *Module) []Finding {
	var findings []Finding
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch sw := n.(type) {
				case *ast.SwitchStmt:
					if f, ok := valueSwitchFinding(cfg, mod, pkg, sw); ok {
						findings = append(findings, f)
					}
				case *ast.TypeSwitchStmt:
					if f, ok := typeSwitchFinding(cfg, pkg, sw); ok {
						findings = append(findings, f)
					}
				}
				return true
			})
		}
	}
	return findings
}

// valueSwitchFinding checks one tagged value switch against modes 1 and 2.
func valueSwitchFinding(cfg Config, mod *Module, pkg *Package, sw *ast.SwitchStmt) (Finding, bool) {
	if sw.Tag == nil {
		return Finding{}, false
	}
	tagType := pkg.Info.Types[sw.Tag].Type
	if tagType == nil {
		return Finding{}, false
	}

	hasDefault := false
	var caseExprs []ast.Expr
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseExprs = append(caseExprs, cc.List...)
	}
	if hasDefault {
		return Finding{}, false
	}

	if named, ok := tagType.(*types.Named); ok && isEnumUnderlying(named.Underlying()) {
		return namedEnumFinding(cfg, mod, pkg, sw, named, caseExprs)
	}
	if isStringType(tagType) {
		return constGroupFinding(mod, pkg, sw, caseExprs)
	}
	return Finding{}, false
}

func isEnumUnderlying(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsString|types.IsInteger) != 0 && b.Info()&types.IsBoolean == 0
}

// namedEnumFinding handles mode 1: enumerate the constants of the tag's
// named type from its declaring package scope and demand value coverage.
func namedEnumFinding(cfg Config, mod *Module, pkg *Package, sw *ast.SwitchStmt, named *types.Named, caseExprs []ast.Expr) (Finding, bool) {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return Finding{}, false
	}
	declPath := obj.Pkg().Path()
	if !enumPackage(cfg, mod, declPath) {
		return Finding{}, false
	}

	type member struct {
		name  string
		value constant.Value
	}
	var members []member
	scope := obj.Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		members = append(members, member{name, c.Val()})
	}
	if len(members) < 2 {
		return Finding{}, false
	}

	covered := caseValues(pkg, caseExprs)
	var missing []string
	for _, m := range members {
		if !coveredValue(covered, m.value) {
			missing = append(missing, m.name)
		}
	}
	if len(missing) == 0 {
		return Finding{}, false
	}
	return Finding{
		Pos:   pkg.Fset.Position(sw.Pos()),
		Check: "eventcase",
		Msg: "switch over " + obj.Pkg().Name() + "." + obj.Name() + " misses " +
			strings.Join(missing, ", ") + "; add the cases or an explicit default",
	}, true
}

// constGroupFinding handles mode 2: a plain-string switch that dispatches
// over an enum-like const block.
func constGroupFinding(mod *Module, pkg *Package, sw *ast.SwitchStmt, caseExprs []ast.Expr) (Finding, bool) {
	// Which groups do the named case constants belong to, and how many
	// distinct members of each are referenced?
	type groupUse struct {
		group   *constGroup
		members map[string]bool
	}
	uses := make(map[*constGroup]*groupUse)
	var order []*constGroup
	for _, e := range caseExprs {
		c, key := namedConstOf(pkg, e)
		if c == nil {
			continue
		}
		g, ok := mod.constGroups[key]
		if !ok {
			continue
		}
		u := uses[g]
		if u == nil {
			u = &groupUse{group: g, members: make(map[string]bool)}
			uses[g] = u
			order = append(order, g)
		}
		u.members[key] = true
	}

	covered := caseValues(pkg, caseExprs)
	for _, g := range order {
		if len(uses[g].members) < 2 {
			continue
		}
		var missing []string
		for _, m := range g.members {
			if !coveredValue(covered, m.obj.Val()) {
				missing = append(missing, m.name)
			}
		}
		if len(missing) == 0 {
			continue
		}
		sort.Strings(missing)
		return Finding{
			Pos:   pkg.Fset.Position(sw.Pos()),
			Check: "eventcase",
			Msg: "switch dispatches over the " + g.pkg.Types.Name() + " const family of " +
				missing[0] + " but misses " + strings.Join(missing, ", ") +
				"; add the cases or an explicit default",
		}, true
	}
	return Finding{}, false
}

// namedConstOf resolves a case expression to a named constant and its
// module-wide "pkgpath.Name" key.
func namedConstOf(pkg *Package, e ast.Expr) (*types.Const, string) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil, ""
	}
	c, ok := pkg.Info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil {
		return nil, ""
	}
	return c, c.Pkg().Path() + "." + c.Name()
}

// caseValues collects the constant values of the case expressions.
func caseValues(pkg *Package, exprs []ast.Expr) []constant.Value {
	var vals []constant.Value
	for _, e := range exprs {
		if tv := pkg.Info.Types[e]; tv.Value != nil {
			vals = append(vals, tv.Value)
		}
	}
	return vals
}

func coveredValue(covered []constant.Value, v constant.Value) bool {
	for _, c := range covered {
		if constant.Compare(c, token.EQL, v) {
			return true
		}
	}
	return false
}

// enumPackage reports whether declPath declares checked enums: any
// configured enum package, or any package in the current module view
// (fixtures declare their own).
func enumPackage(cfg Config, mod *Module, declPath string) bool {
	if matchAny(cfg.EnumPackages, declPath) {
		return true
	}
	for _, pkg := range mod.Pkgs {
		if pkg.Path == declPath {
			return true
		}
	}
	return false
}

// typeSwitchFinding handles mode 3: payload fan-outs over any.
func typeSwitchFinding(cfg Config, pkg *Package, sw *ast.TypeSwitchStmt) (Finding, bool) {
	subject := typeSwitchSubject(sw)
	if subject == nil {
		return Finding{}, false
	}
	st := pkg.Info.Types[subject].Type
	iface, ok := st.(*types.Interface)
	if !ok {
		if named, isNamed := st.(*types.Named); isNamed {
			iface, ok = named.Underlying().(*types.Interface)
		}
	}
	if !ok || iface == nil || !iface.Empty() {
		return Finding{}, false
	}

	var caseKeys []string
	hasDefault := false
	for _, clause := range sw.Body.List {
		cc, isCase := clause.(*ast.CaseClause)
		if !isCase {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, te := range cc.List {
			t := pkg.Info.Types[te].Type
			if t == nil {
				continue
			}
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				caseKeys = append(caseKeys, named.Obj().Pkg().Path()+"."+named.Obj().Name())
			}
		}
	}
	if hasDefault {
		return Finding{}, false
	}

	matchesConfigured := func(key string) (string, bool) {
		for _, want := range cfg.EventPayloadTypes {
			dot := strings.LastIndex(want, ".")
			if dot < 0 {
				continue
			}
			pkgPat, typeName := want[:dot], want[dot+1:]
			kdot := strings.LastIndex(key, ".")
			if kdot < 0 {
				continue
			}
			if key[kdot+1:] == typeName && matchPackage(pkgPat, key[:kdot]) {
				return want, true
			}
		}
		return "", false
	}

	coveredPayloads := make(map[string]bool)
	engaged := false
	for _, k := range caseKeys {
		if want, ok := matchesConfigured(k); ok {
			engaged = true
			coveredPayloads[want] = true
		}
	}
	if !engaged {
		return Finding{}, false
	}
	var missing []string
	for _, want := range cfg.EventPayloadTypes {
		if !coveredPayloads[want] {
			missing = append(missing, want)
		}
	}
	if len(missing) == 0 {
		return Finding{}, false
	}
	return Finding{
		Pos:   pkg.Fset.Position(sw.Pos()),
		Check: "eventcase",
		Msg: "type switch over an event payload misses " + strings.Join(missing, ", ") +
			"; add the cases or an explicit default",
	}, true
}

// typeSwitchSubject extracts x from `switch x.(type)` or
// `switch v := x.(type)`.
func typeSwitchSubject(sw *ast.TypeSwitchStmt) ast.Expr {
	var e ast.Expr
	switch s := sw.Assign.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr)
	if !ok {
		return nil
	}
	return ta.X
}
