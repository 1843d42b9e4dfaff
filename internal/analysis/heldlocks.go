package analysis

import (
	"go/ast"
	"go/types"
)

// heldSite is one point of a function body the held-lock walk reports: a
// Lock/RLock call (Lock is the key it acquires), a channel send, or any
// other call, with the locks held just before it.
type heldSite struct {
	Node  ast.Node // *ast.CallExpr or *ast.SendStmt
	Lock  string
	Held  map[string]int // lock key -> hold count, valid during the visit only
	Async bool           // the code runs on a goroutine the function started
}

// walkHeld is the held-lock walk mutexheld and lockorder are both built on.
// It visits a function body in source order, counting Lock/RLock and
// Unlock/RUnlock calls on sync mutexes per structural key (see lockKey), so
// two instances of one type locked in turn stay held until both unlock.
//
// It is a linear heuristic, not a dataflow analysis: branch bodies share
// the held set, and a deferred unlock holds to the end of the function.
// Function literals, and the literal bodies of go and defer statements,
// are walked afterwards with nothing held: they run later, outside the
// section; a go literal's body and everything in it is Async. Neither a
// deferred call nor a `go f(x)` is visited, and the communication headers
// of a select with a default clause are skipped, since they never block.
func walkHeld(pkg *Package, fnKey string, body *ast.BlockStmt, visit func(heldSite)) {
	w := &heldWalk{pkg: pkg, fnKey: fnKey, visit: visit}
	w.queue = []laterBody{{body, false}}
	for len(w.queue) > 0 {
		next := w.queue[0]
		w.queue = w.queue[1:]
		w.held, w.async = map[string]int{}, next.async
		w.stmts(next.body.List)
	}
}

type heldWalk struct {
	pkg   *Package
	fnKey string
	visit func(heldSite)
	held  map[string]int
	async bool
	queue []laterBody
}

// laterBody is a function literal body the walk returns to once the
// enclosing body is done.
type laterBody struct {
	body  *ast.BlockStmt
	async bool
}

func (w *heldWalk) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *heldWalk) stmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.node(s.Cond)
		w.stmts(s.Body.List)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.node(s.Cond)
		w.stmts(s.Body.List)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		w.node(s.X)
		w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.node(s.Tag)
		w.stmts(s.Body.List)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmts(s.Body.List)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.node(e)
		}
		w.stmts(s.Body)
	case *ast.SelectStmt:
		nonBlocking := hasDefault(s)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			if !nonBlocking {
				w.stmt(cc.Comm)
			}
			w.stmts(cc.Body)
		}
	case *ast.GoStmt:
		w.later(s.Call, true)
	case *ast.DeferStmt:
		w.later(s.Call, w.async)
	default:
		w.node(s)
	}
}

// later queues the body of a go or defer statement's function literal.
func (w *heldWalk) later(call *ast.CallExpr, async bool) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.queue = append(w.queue, laterBody{lit.Body, async})
	}
}

// node visits an expression or a simple statement: the lock operations,
// sends and calls in it, in source order, queueing function literals.
func (w *heldWalk) node(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.queue = append(w.queue, laterBody{x.Body, w.async})
			return false
		case *ast.SendStmt:
			w.visit(heldSite{Node: x, Held: w.held, Async: w.async})
		case *ast.CallExpr:
			key, locks, ok := w.lockOp(x)
			switch {
			case !ok:
				w.visit(heldSite{Node: x, Held: w.held, Async: w.async})
				return true
			case locks:
				w.visit(heldSite{Node: x, Lock: key, Held: w.held, Async: w.async})
				w.held[key]++
			case w.held[key] > 1:
				w.held[key]--
			default:
				delete(w.held, key)
			}
			return false
		}
		return true
	})
}

// lockOp recognises Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex, returning the mutex's key and whether the call acquires.
func (w *heldWalk) lockOp(call *ast.CallExpr) (key string, locks, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	named, isNamed := deref(w.pkg.Info.Types[sel.X].Type).(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", false, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", false, false
	}
	return w.lockKey(sel.X), locks, true
}

// lockKey maps a mutex expression to its structural identity: a field is
// "pkg.Type.field" (every instance of the type shares it), a package-level
// variable "pkg.var", and anything else its text scoped to the function.
func (w *heldWalk) lockKey(recv ast.Expr) string {
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if sel := w.pkg.Info.Selections[x]; sel != nil {
			named, isNamed := deref(sel.Recv()).(*types.Named)
			if v, isVar := sel.Obj().(*types.Var); isVar && v.IsField() && isNamed && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + v.Name()
			}
		} else if obj, isVar := w.pkg.Info.Uses[x.Sel].(*types.Var); isVar && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name() // otherpkg.Mu
		}
	case *ast.Ident:
		if obj, isVar := w.pkg.Info.Uses[x].(*types.Var); isVar && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return w.fnKey + "$" + types.ExprString(recv)
}

// hasDefault reports whether a select statement has a default clause.
func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
