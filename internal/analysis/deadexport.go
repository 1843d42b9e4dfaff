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

// deadKeep is the table of identifiers deadexport keeps although nothing
// outside their own package's tests reads them, keyed by module-relative
// package path and name, with the reason each stays. A kept type keeps its
// fields.
var deadKeep = map[string]string{
	"internal/hpcm.Process.PreInit":     "the paper's pre-initialisation of the destination (§5.2), driven only by tests today",
	"internal/hpcm.Process.PreInited":   "the paper's pre-initialisation of the destination (§5.2), driven only by tests today",
	"internal/hpcm.Context.SendTo":      "the paper's channels between migrating processes (§3), driven only by tests today",
	"internal/hpcm.Context.ReceiveFrom": "the paper's channels between migrating processes (§3), driven only by tests today",
	"internal/hpcm.FileStore":           "the on-disk checkpoint store ROADMAP's streaming-checkpoint item starts from",
	"internal/scenario.RunLive":         "ROADMAP's invariants item runs the live runtime under the checker through it",
	"internal/sysinfo.DiskUsage":        "the paper's disk category (§3.1), which diskUsedPct.sh reads; no source fills it today (ProcSource has no portable disk table, simulated hosts have no mounts)",
	"internal/sysinfo.ProcStat":         "the row of Source.Procs, the paper's process table (§3.1), which every Source and cmd/bench's synthetic one fill; the sensor only counts the rows",
}

// reflectMethods are the methods fmt, errors and the encoding packages
// find by an interface assertion at run time, so no static reader names
// them.
var reflectMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// checkDeadExport flags identifiers in non-test code under internal/ that
// nothing outside their own package's tests reads. For exported ones that
// is funcs, methods, types, vars, consts and struct fields; for unexported
// ones funcs, methods and struct fields. A reader is any non-test code in
// the module (cmd/, examples/ and the package itself included), another
// package's test, or a testdata program. Tests and testdata programs are
// type-checked like the rest, so every reference resolves to the one
// object it names; a package's own tests are its in-package and external
// tests alike.
//
// Writes are not reads: an assignment's left-hand side, a composite
// literal's keys, a method's receiver type, and a default fill's condition
// (`if x.F == 0 { x.F = d }`). Exempt are methods that satisfy an interface
// the module uses (or that fmt, errors and the encoders look up), fields
// with a json or xml tag, which reflection reads, and the deadKeep table.
// An unexported field is also exempt when its type is from sync or
// sync/atomic, or when its struct's values are compared (as a map key or
// with == or !=), which reads every field.
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
		ownReads := func(obj types.Object) string {
			return fmt.Sprintf(" (own-test reads: %d)", r.refs[r.posOf(obj)][reader{pkg.Path, true}])
		}
		unread := func(obj types.Object) string {
			return ": no reader outside " + pkg.Types.Name() + "'s own tests" + ownReads(obj)
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					fn := pkg.Info.Defs[fd.Name].(*types.Func)
					if recv := fn.Type().(*types.Signature).Recv(); recv == nil {
						if !r.read(pkg, fn) {
							report(fd.Name, "func", fd.Name.Name, unread(fn))
						}
					} else if !r.satisfies(fn, recv.Type()) && !r.read(pkg, fn) {
						report(fd.Name, "method", deref(recv.Type()).(*types.Named).Obj().Name()+"."+fd.Name.Name, unread(fn))
					}
				}
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok == token.IMPORT {
					continue
				}
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							if obj := pkg.Info.Defs[id]; id.IsExported() && !r.read(pkg, obj) {
								report(id, gd.Tok.String(), id.Name, unread(obj))
							}
						}
						continue
					}
					ts := spec.(*ast.TypeSpec)
					typ := pkg.Info.Defs[ts.Name]
					if ts.Name.IsExported() && !r.read(pkg, typ) {
						report(ts.Name, "type", ts.Name.Name, unread(typ))
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					_, kept := deadKeep[rel+"."+ts.Name.Name]
					filled := r.filled[r.posOf(typ)]
					compared := r.compared[r.posOf(typ)]
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							name := ts.Name.Name + "." + id.Name
							field := pkg.Info.Defs[id]
							switch {
							case kept || id.Name == "_" || reflected(f.Tag):
							case !id.IsExported() && (compared || fromSync(field.Type())):
							case !r.read(pkg, field):
								report(id, "field", name, unread(field))
							case id.IsExported() && !filled && !r.set[r.posOf(field)]:
								report(id, "field", name, ": no non-test code sets it"+ownReads(field))
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

// reader is where reads come from: a package's non-test code or its tests
// (a testdata program is non-test code of its own path).
type reader struct {
	path string
	test bool
}

// readers is deadexport's one index of resolved references, test and
// non-test code alike, and of what non-test code does besides reading.
type readers struct {
	fset *token.FileSet
	// refs holds, per object declared under internal/, how often each
	// reader reads it.
	refs map[declPos]map[reader]int
	// ifaces are the interfaces with methods non-test code uses, by method,
	// each in every loaded copy of its declaration.
	ifaces map[string][]*types.Interface
	// set holds the fields non-test code sets and optionSet those an
	// option literal or a composite literal sets; filled holds the structs
	// a call hands by pointer to an empty-interface parameter, and compared
	// those whose values are compared.
	set, filled, compared map[declPos]bool
	optionSet             map[types.Object]bool
}

func newReaders(mod *Module) *readers {
	r := &readers{
		fset:      fsetOf(mod),
		refs:      make(map[declPos]map[reader]int),
		ifaces:    make(map[string][]*types.Interface),
		set:       make(map[declPos]bool),
		filled:    make(map[declPos]bool),
		compared:  make(map[declPos]bool),
		optionSet: make(map[types.Object]bool),
	}
	// Every loaded copy of a module package: the one checked from source,
	// and the one its importers see through export data.
	copies := make(map[string][]*types.Package)
	seen := make(map[*types.Package]bool)
	for _, pkg := range mod.Pkgs {
		for _, p := range append(pkg.Types.Imports(), pkg.Types) {
			if !seen[p] && strings.HasPrefix(p.Path(), module+"/") {
				seen[p] = true
				copies[p.Path()] = append(copies[p.Path()], p)
			}
		}
	}
	used := make(map[types.Type]bool)
	for _, pkg := range mod.Pkgs {
		r.walk(pkg, pkg.Files, reader{pkg.Path, false}, used)
		r.walk(pkg, pkg.Tests, reader{pkg.Path, true}, nil)
		if pkg.XTest != nil {
			r.walk(pkg.XTest, pkg.XTest.Files, reader{pkg.Path, true}, nil)
		}
		for _, prog := range pkg.Programs {
			r.walk(prog, prog.Files, reader{prog.Path, false}, nil)
		}
	}
	seenIface := make(map[*types.Interface]bool)
	for t := range used {
		if _, ok := t.Underlying().(*types.Interface); !ok {
			continue
		}
		// A method whose signature names its own package's types satisfies
		// only the copy of the interface that names the same ones.
		twins := []types.Type{t}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			for _, p := range copies[named.Obj().Pkg().Path()] {
				if twin := p.Scope().Lookup(named.Obj().Name()); twin != nil {
					twins = append(twins, twin.Type())
				}
			}
		}
		for _, t := range twins {
			it := t.Underlying().(*types.Interface)
			for i := 0; !seenIface[it] && i < it.NumMethods(); i++ {
				r.ifaces[it.Method(i).Name()] = append(r.ifaces[it.Method(i).Name()], it)
			}
			seenIface[it] = true
		}
	}
	return r
}

// walk indexes the reads files of pkg make as by. For non-test code of
// the module (used non-nil) it also collects the types of what it uses, with
// a called function's parameters and results, into used, and records the
// fields it sets, the structs it hands by pointer to an empty-interface
// parameter and the structs whose values it compares. An identifier that
// names an object without reading it is a write: an assignment target, a
// composite literal key, a receiver type, and a default fill's condition.
func (r *readers) walk(pkg *Package, files []*ast.File, by reader, used map[types.Type]bool) {
	code := used != nil
	reads := make(map[types.Object]int)
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
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && code {
			r.setField(pkg.Info.Uses[sel.Sel], option)
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				// Locals are never candidates.
				obj := pkg.Info.Uses[x]
				if obj == nil || obj.Pkg() == nil || obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
					break
				}
				if code {
					used[obj.Type()] = true
					if sig, ok := obj.Type().(*types.Signature); ok {
						for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
							for i := 0; i < tuple.Len(); i++ {
								used[tuple.At(i).Type()] = true
							}
						}
					}
				}
				if !writes[x] {
					reads[obj]++
				}
			case *ast.FuncDecl:
				if x.Recv != nil {
					mark(x.Recv, nil)
				}
			case *ast.FuncLit:
				if code && optionTarget(pkg, pkg.Info.TypeOf(x)) != nil {
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
					if code {
						r.setField(field, true)
					}
				}
			case *ast.CallExpr:
				sig, ok := pkg.Info.TypeOf(x.Fun).(*types.Signature)
				for i := 0; code && ok && i < len(x.Args); i++ {
					if named := reflectTarget(sig, i, pkg.Info.TypeOf(x.Args[i])); named != nil {
						r.filled[r.posOf(named)] = true
					}
				}
			case *ast.IfStmt:
				if field := defaultFill(pkg, x); field != nil && mark(x.Cond, field) {
					fills[x.Body.List[0]] = true
				}
			case *ast.BinaryExpr:
				if code && (x.Op == token.EQL || x.Op == token.NEQ) {
					r.compare(pkg.Info.TypeOf(x.X))
					r.compare(pkg.Info.TypeOf(x.Y))
				}
			case *ast.MapType:
				if code {
					r.compare(pkg.Info.TypeOf(x.Key))
				}
			}
			return true
		})
	}
	for obj, n := range reads {
		if strings.HasPrefix(obj.Pkg().Path(), module+"/internal/") {
			pos := r.posOf(obj)
			if r.refs[pos] == nil {
				r.refs[pos] = make(map[reader]int)
			}
			r.refs[pos][by] += n
		}
	}
}

// compare records t when it is a struct a comparison of whose values reads
// every field.
func (r *readers) compare(t types.Type) {
	if named, ok := t.(*types.Named); ok {
		if _, ok := named.Underlying().(*types.Struct); ok {
			r.compared[r.posOf(named.Obj())] = true
		}
	}
}

func (r *readers) posOf(obj types.Object) declPos {
	p := r.fset.Position(obj.Pos())
	return declPos{p.Filename, p.Line, obj.Name()}
}

// read reports whether anything but pkg's own tests reads obj.
func (r *readers) read(pkg *Package, obj types.Object) bool {
	for by := range r.refs[r.posOf(obj)] {
		if by != (reader{pkg.Path, true}) {
			return true
		}
	}
	return false
}

// fromSync reports whether t, or what it points to, is a type of sync or
// sync/atomic.
func fromSync(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
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
