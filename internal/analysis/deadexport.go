package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// deadKeep is the table of exported identifiers deadexport keeps although
// nothing outside their own package's tests reads them, keyed by
// module-relative package path and name, with the reason each stays.
var deadKeep = map[string]string{
	"internal/hpcm.Process.PreInit":     "the paper's pre-initialisation of the destination (§5.2), driven only by tests today",
	"internal/hpcm.Process.PreInited":   "the paper's pre-initialisation of the destination (§5.2), driven only by tests today",
	"internal/hpcm.Context.SendTo":      "the paper's channels between migrating processes (§3), driven only by tests today",
	"internal/hpcm.Context.ReceiveFrom": "the paper's channels between migrating processes (§3), driven only by tests today",
	"internal/hpcm.FileStore":           "the on-disk checkpoint store ROADMAP's streaming-checkpoint item starts from",
	"internal/scenario.RunLive":         "ROADMAP's invariants item runs the live runtime under the checker through it",
	"internal/sysinfo.DiskUsage":        "the paper's disk category (§3.1), which diskUsedPct.sh reads; no source fills it today (ProcSource has no portable disk table, simulated hosts have no mounts)",
	"internal/vclock.Manual.Waiters":    "ROADMAP's vclock.Auto builds its quiescence accounting on the waiter count",
}

// reflectMethods are the methods fmt, errors and the encoding packages
// find by an interface assertion at run time, so no static reader names
// them.
var reflectMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// checkDeadExport flags exported identifiers in non-test code under
// internal/ that nothing outside their own package's tests reads: funcs,
// methods, types, vars, consts and struct fields. A reader is any non-test
// code in the module (cmd/, examples/ and the package itself included),
// another package's test, or a testdata program, analyzer fixtures
// included. Non-test code is type-checked, so its references resolve
// exactly; tests and testdata programs are only parsed, so a qualified
// alias.Name selector names a package's identifier, and a bare .Name
// selector reads every method and field of that name (an
// over-approximation that can only hide findings).
//
// Writes are not reads: an assignment's left-hand side, a composite
// literal's keys, a method's receiver type, and a default fill's condition
// (`if x.F == 0 { x.F = d }`). Exempt are methods that satisfy an interface
// the module uses (or that fmt, errors and the encoders look up), fields
// with a json or xml tag, which reflection reads, and the deadKeep table.
//
// The write rule: an exported field that is read must also be set by
// non-test code somewhere in the module, in a composite literal (keyed or
// positional), an assignment, an increment or an &x.F; a default fill does
// not count, and neither do tests. A field only a test sets is a constant
// in disguise. Exempt are tagged fields, the fields of a struct whose
// pointer some call passes as an empty-interface argument (a decoder or
// hpcm's state registry fills them by reflection), and the fields of a
// kept type.
//
// The config-struct case: the struct T of an `Option func(*T)` type declared
// beside it is held to more. Every field, exported or not, must be read,
// and must also be set inside a function literal of shape func(*T) (a With*
// option) or in a composite literal of T (a constructor's arguments); a
// field only a test, a default fill or some other function writes is a
// setting no caller can reach.
func checkDeadExport(_ Config, mod *Module) []Finding {
	r := newReaders(mod)
	var findings []Finding
	for _, pkg := range mod.Pkgs {
		rel, ok := strings.CutPrefix(pkg.Path, module+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		targets := optionTargets(pkg)
		report := func(id *ast.Ident, kind, name, msg string) {
			if _, kept := deadKeep[rel+"."+name]; !kept {
				findings = append(findings, Finding{
					Pos:   pkg.Fset.Position(id.Pos()),
					Check: "deadexport",
					Msg:   kind + " " + pkg.Types.Name() + "." + name + msg,
				})
			}
		}
		mentioned := func(id *ast.Ident) string {
			return fmt.Sprintf(" (own-test mentions: %d)", mentions(pkg, id.Name))
		}
		unread := func(id *ast.Ident) string {
			return ": no reader outside " + pkg.Types.Name() + "'s own tests" + mentioned(id)
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					fn := pkg.Info.Defs[fd.Name].(*types.Func)
					if recv := fn.Type().(*types.Signature).Recv(); recv == nil {
						if !r.read(pkg, fd.Name, false) {
							report(fd.Name, "func", fd.Name.Name, unread(fd.Name))
						}
					} else if !r.satisfies(fn, recv.Type()) && !r.read(pkg, fd.Name, true) {
						report(fd.Name, "method", deref(recv.Type()).(*types.Named).Obj().Name()+"."+fd.Name.Name, unread(fd.Name))
					}
				}
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok == token.IMPORT {
					continue
				}
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							if id.IsExported() && !r.read(pkg, id, false) {
								report(id, gd.Tok.String(), id.Name, unread(id))
							}
						}
						continue
					}
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && !r.read(pkg, ts.Name, false) {
						report(ts.Name, "type", ts.Name.Name, unread(ts.Name))
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					typ := pkg.Info.Defs[ts.Name]
					_, kept := deadKeep[rel+"."+ts.Name.Name]
					filled := kept || r.filled[r.posOf(typ)]
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							name := ts.Name.Name + "." + id.Name
							field := pkg.Info.Defs[id]
							switch {
							case reflected(f.Tag) || !id.IsExported() && !targets[typ]:
							case !r.read(pkg, id, true):
								report(id, "field", name, unread(id))
							case id.IsExported() && !filled && !r.set[r.posOf(field)]:
								report(id, "field", name, ": no non-test code sets it"+mentioned(id))
							}
							if targets[typ] && !r.optionSet[field] {
								report(id, "field", name, " is never set by an option of its package (dead configuration)")
							}
						}
					}
				}
			}
		}
	}
	return findings
}

// declPos identifies a declaration the same way whether its object came
// from source or from export data, which keeps file and line but not the
// column.
type declPos struct {
	file string
	line int
	name string
}

// ref is a reference in a parsed file: a qualified selector's package path
// and name, or "" and the name of a bare .Name selector.
type ref struct{ path, name string }

// readers indexes every read deadexport counts.
type readers struct {
	fset  *token.FileSet
	typed map[declPos]bool // objects non-test code reads
	// parsed holds, per reference in tests and testdata programs, the
	// packages whose tests make it ("" for a testdata program).
	parsed map[ref]map[string]bool
	// ifaces are the interfaces with methods the module uses, by method.
	ifaces map[string][]*types.Interface
	// set holds the fields non-test code sets and optionSet those an
	// option literal or a composite literal sets; filled holds the structs
	// a call hands by pointer to an empty-interface parameter.
	set, filled map[declPos]bool
	optionSet   map[types.Object]bool
}

func newReaders(mod *Module) *readers {
	r := &readers{
		fset:      fsetOf(mod),
		typed:     make(map[declPos]bool),
		parsed:    make(map[ref]map[string]bool),
		ifaces:    make(map[string][]*types.Interface),
		set:       make(map[declPos]bool),
		filled:    make(map[declPos]bool),
		optionSet: make(map[types.Object]bool),
	}
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		for i := 0; ok && !seen[it] && i < it.NumMethods(); i++ {
			r.ifaces[it.Method(i).Name()] = append(r.ifaces[it.Method(i).Name()], it)
		}
		seen[it] = true
	}
	used := make(map[types.Object]bool)
	for _, pkg := range mod.Pkgs {
		writes := r.walk(pkg)
		for id, obj := range pkg.Info.Uses {
			// Locals are never candidates. Every other object named, with a
			// called function's parameters and results, brings in the
			// interfaces the module uses.
			if p := obj.Parent(); p != nil && obj.Pkg() != nil && p != obj.Pkg().Scope() {
				continue
			}
			if !writes[id] {
				used[obj] = true
			}
			addIface(obj.Type())
			if sig, ok := obj.Type().(*types.Signature); ok {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
		}
		for _, file := range pkg.Tests {
			r.parsedReads(pkg.Path, file)
		}
		for _, file := range pkg.Fixtures {
			r.parsedReads("", file)
		}
	}
	for obj := range used {
		if obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), module+"/internal/") {
			r.typed[r.posOf(obj)] = true
		}
	}
	return r
}

// walk indexes what a package's non-test code does besides reading. It
// records the fields it sets and the structs it hands by pointer to an
// empty-interface parameter, and returns the identifiers that name an object
// without reading it: assignment targets, composite literal keys, receiver
// types, and a default fill's condition.
func (r *readers) walk(pkg *Package) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	mark := func(n ast.Node, only types.Object) (marked bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (only == nil || pkg.Info.Uses[id] == only) {
				writes[id] = true
				marked = true
			}
			return true
		})
		return marked
	}
	fills := make(map[ast.Stmt]bool)
	var optionEnd token.Pos // the end of the last option literal entered
	set := func(e ast.Expr, option bool) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			r.setField(pkg.Info.Uses[sel.Sel], option)
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil {
					mark(x.Recv, nil)
				}
			case *ast.FuncLit:
				if optionTarget(pkg, pkg.Info.TypeOf(x)) != nil {
					optionEnd = x.End()
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && x.Tok == token.ASSIGN {
						writes[sel.Sel] = true
					}
					if !fills[x] {
						set(lhs, x.Pos() < optionEnd)
					}
				}
			case *ast.IncDecStmt:
				set(x.X, false)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					set(x.X, false)
				}
			case *ast.CompositeLit:
				st, ok := deref(pkg.Info.TypeOf(x)).Underlying().(*types.Struct)
				for i := 0; ok && i < len(x.Elts); i++ {
					field := types.Object(st.Field(i))
					if kv, keyed := x.Elts[i].(*ast.KeyValueExpr); keyed {
						id := kv.Key.(*ast.Ident)
						writes[id] = true
						field = pkg.Info.Uses[id]
					}
					r.setField(field, true)
				}
			case *ast.CallExpr:
				sig, ok := pkg.Info.TypeOf(x.Fun).(*types.Signature)
				for i := 0; ok && i < len(x.Args); i++ {
					if named := reflectTarget(sig, i, pkg.Info.TypeOf(x.Args[i])); named != nil {
						r.filled[r.posOf(named)] = true
					}
				}
			case *ast.IfStmt:
				if field := defaultFill(pkg, x); field != nil && mark(x.Cond, field) {
					fills[x.Body.List[0]] = true
				}
			}
			return true
		})
	}
	return writes
}

// setField records a set of obj when it is a struct field.
func (r *readers) setField(obj types.Object, option bool) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		r.set[r.posOf(v)] = true
		if option {
			r.optionSet[v] = true
		}
	}
}

// reflectTarget returns the type whose pointer a call passes, as its i-th
// argument of type arg, to an empty-interface parameter, where a decoder or
// hpcm's state registry may fill it; nil otherwise.
func reflectTarget(sig *types.Signature, i int, arg types.Type) types.Object {
	n := sig.Params().Len()
	ptr, ok := arg.(*types.Pointer)
	if !ok || n == 0 {
		return nil
	}
	param := sig.Params().At(min(i, n-1)).Type()
	if s, ok := param.(*types.Slice); ok && sig.Variadic() && i >= n-1 {
		param = s.Elem()
	}
	iface, ok := param.Underlying().(*types.Interface)
	named, isNamed := ptr.Elem().(*types.Named)
	if !ok || !iface.Empty() || !isNamed {
		return nil
	}
	return named.Obj()
}

// defaultFill returns the field an `if ... { x.F = v }` statement assigns,
// when that assignment is its whole body and it has no else.
func defaultFill(pkg *Package, s *ast.IfStmt) types.Object {
	if s.Else != nil || len(s.Body.List) != 1 {
		return nil
	}
	assign, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 {
		return nil
	}
	if sel, ok := ast.Unparen(assign.Lhs[0]).(*ast.SelectorExpr); ok {
		return pkg.Info.Uses[sel.Sel]
	}
	return nil
}

// parsedReads records one parsed file's selectors; reader is the package
// whose tests the file belongs to, "" for a testdata program.
func (r *readers) parsedReads(reader string, file *ast.File) {
	imports := make(map[string]string)
	for _, spec := range file.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = path
	}
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key := ref{"", sel.Sel.Name}
		if id, ok := sel.X.(*ast.Ident); ok {
			key.path = imports[id.Name]
		}
		if r.parsed[key] == nil {
			r.parsed[key] = make(map[string]bool)
		}
		r.parsed[key][reader] = true
		return true
	})
}

func (r *readers) posOf(obj types.Object) declPos {
	p := r.fset.Position(obj.Pos())
	return declPos{p.Filename, p.Line, obj.Name()}
}

// read reports whether anything but pkg's own tests reads the identifier
// id declares; member is true for methods and fields.
func (r *readers) read(pkg *Package, id *ast.Ident, member bool) bool {
	key := ref{pkg.Path, id.Name}
	if member {
		key.path = ""
	}
	for reader := range r.parsed[key] {
		if reader != pkg.Path {
			return true
		}
	}
	return r.typed[r.posOf(pkg.Info.Defs[id])]
}

// mentions counts the identifiers named name in pkg's own tests.
func mentions(pkg *Package, name string) int {
	n := 0
	for _, file := range pkg.Tests {
		ast.Inspect(file, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok && id.Name == name {
				n++
			}
			return true
		})
	}
	return n
}

// satisfies reports whether a method is part of an interface the module
// uses, or one fmt, errors and the encoders look up.
func (r *readers) satisfies(fn *types.Func, recv types.Type) bool {
	for _, it := range r.ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(deref(recv)), it) {
			return true
		}
	}
	return reflectMethods[fn.Name()]
}

// reflected reports whether a struct tag names the field for json or xml.
func reflected(tag *ast.BasicLit) bool {
	if tag == nil {
		return false
	}
	s, _ := strconv.Unquote(tag.Value)
	_, json := reflect.StructTag(s).Lookup("json")
	_, xml := reflect.StructTag(s).Lookup("xml")
	return json || xml
}

// optionTargets finds the structs T of the package's `Option func(*T)`
// types.
func optionTargets(pkg *Package) map[types.Object]bool {
	targets := make(map[types.Object]bool)
	for _, name := range pkg.Types.Scope().Names() {
		if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if t := optionTarget(pkg, tn.Type().Underlying()); t != nil {
				targets[t] = true
			}
		}
	}
	return targets
}

// optionTarget returns the struct type T when t is a function type of
// shape func(*T), T a struct declared in pkg; nil otherwise.
func optionTarget(pkg *Package, t types.Type) types.Object {
	sig, ok := t.(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return nil
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() != pkg.Types {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}
