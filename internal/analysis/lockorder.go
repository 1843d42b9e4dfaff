package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
)

// checkLockOrder lifts walkHeld's per-function held tracking, the walk
// mutexheld reports from, into a module-global lock-acquisition graph and
// reports cycles as potential deadlocks. Mutexes are identified
// structurally, not per instance (walkHeld's lockKey):
//
//   - a field mutex is "pkg.Type.field" (every *Registry shares one node),
//   - a package-level mutex is "pkg.var",
//   - any other mutex, a function-local one say, is scoped to its function
//     (it can only form a cycle with edges inside that same function).
//
// An edge A -> B means some goroutine can acquire B while holding A:
// either directly in one body, or because a call made under A reaches a
// function whose transitive (same-goroutine) acquire set contains B. The
// transitive sets are a fixpoint over the static call graph
// (FuncInfo.Calls); calls under `go` are excluded (the spawned goroutine
// holds nothing of the caller's), and RLock counts as Lock (read-write
// cycles still deadlock against writers).
//
// Because identity is per type.field rather than per instance, an edge
// A -> A from a *callee* (parent/child registries locking the same field)
// would be pure noise and is dropped; a direct A -> A in one body (two
// instances of one type locked without an ordering rule) is kept — that
// is the classic account-transfer deadlock.
func checkLockOrder(cfg Config, mod *Module) []Finding {
	g := &lockGraph{
		edges:    make(map[string]map[string]token.Pos),
		acquires: make(map[string]map[string]bool),
	}
	var pending []pendingCall
	for _, fi := range mod.FuncsSorted() {
		walkHeld(fi.Pkg, fi.Key, fi.Decl.Body, func(s heldSite) {
			if s.Lock != "" {
				// Every held lock orders before the new one, a held lock of
				// the same key included (two instances of one type, no
				// ordering rule: the classic transfer deadlock).
				for h := range s.Held {
					g.addEdge(h, s.Lock, s.Node.Pos())
				}
				if !s.Async {
					g.record(fi.Key, s.Lock)
				}
				return
			}
			call, ok := s.Node.(*ast.CallExpr)
			if !ok || len(s.Held) == 0 {
				return
			}
			if callee := funcKey(calleeOf(fi.Pkg, call)); callee != "" {
				held := make([]string, 0, len(s.Held))
				for h := range s.Held {
					held = append(held, h)
				}
				pending = append(pending, pendingCall{held, callee, call.Pos()})
			}
		})
	}
	g.propagate(mod)
	g.resolvePending(pending)
	return g.cycleFindings(mod)
}

// lockGraph accumulates the module-wide acquisition graph.
type lockGraph struct {
	edges map[string]map[string]token.Pos // lock -> lock -> earliest witness
	// acquires is each function's direct (same-goroutine) lock
	// acquisitions; trans adds everything its sync callees (FuncInfo.Calls)
	// can acquire.
	acquires map[string]map[string]bool
	trans    map[string]map[string]bool
}

// pendingCall is a module-internal call made while locks were held; its
// edges are resolved once transitive acquire sets are known.
type pendingCall struct {
	held   []string
	callee string
	pos    token.Pos
}

func (g *lockGraph) addEdge(a, b string, pos token.Pos) {
	m := g.edges[a]
	if m == nil {
		m = make(map[string]token.Pos)
		g.edges[a] = m
	}
	if old, ok := m[b]; !ok || pos < old {
		m[b] = pos
	}
}

func (g *lockGraph) record(fn, lock string) {
	m := g.acquires[fn]
	if m == nil {
		m = make(map[string]bool)
		g.acquires[fn] = m
	}
	m[lock] = true
}

// propagate computes the transitive acquire set of every function: its
// own acquisitions plus everything its sync callees can acquire.
func (g *lockGraph) propagate(mod *Module) {
	g.trans = make(map[string]map[string]bool, len(g.acquires))
	for fn, locks := range g.acquires {
		m := make(map[string]bool, len(locks))
		for l := range locks {
			m[l] = true
		}
		g.trans[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for fn, fi := range mod.Funcs {
			for _, cs := range fi.Calls {
				if cs.Async {
					continue
				}
				for l := range g.trans[cs.Callee] {
					if !g.trans[fn][l] {
						if g.trans[fn] == nil {
							g.trans[fn] = make(map[string]bool)
						}
						g.trans[fn][l] = true
						changed = true
					}
				}
			}
		}
	}
}

// resolvePending turns held-across-call records into edges using the
// callee's transitive acquire set. Same-key edges are dropped here: the
// callee locking "the same" mutex is usually a different instance
// (parent/child shards), which instance-blind keys cannot distinguish.
func (g *lockGraph) resolvePending(pending []pendingCall) {
	for _, pc := range pending {
		for l := range g.trans[pc.callee] {
			for _, h := range pc.held {
				if h != l {
					g.addEdge(h, l, pc.pos)
				}
			}
		}
	}
}

// cycleFindings reports one finding per strongly connected component of
// the graph that holds a cycle: the shortest cycle through the
// component's smallest lock, anchored at the cycle's first edge.
func (g *lockGraph) cycleFindings(mod *Module) []Finding {
	var nodes []string
	for a, m := range g.edges {
		nodes = append(nodes, a)
		for b := range m {
			nodes = append(nodes, b)
		}
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	reach := make(map[string]map[string]bool) // node -> nodes one or more edges away
	reachable := func(from string) map[string]bool {
		if r, ok := reach[from]; ok {
			return r
		}
		r := make(map[string]bool)
		for queue := []string{from}; len(queue) > 0; queue = queue[1:] {
			for b := range g.edges[queue[0]] {
				if !r[b] {
					r[b] = true
					queue = append(queue, b)
				}
			}
		}
		reach[from] = r
		return r
	}

	var findings []Finding
	fset := fsetOf(mod)
	done := make(map[string]bool)
	for _, start := range nodes {
		if done[start] || !reachable(start)[start] {
			continue
		}
		scc := make(map[string]bool)
		for n := range reachable(start) {
			if reachable(n)[start] {
				scc[n], done[n] = true, true
			}
		}
		cycle := g.shortestCycle(start, scc)
		var hops, witnesses []string
		for i := 0; i+1 < len(cycle); i++ {
			a, b := displayKey(cycle[i]), displayKey(cycle[i+1])
			pos := fset.Position(g.edges[cycle[i]][cycle[i+1]])
			hops = append(hops, a)
			witnesses = append(witnesses, fmt.Sprintf("%s -> %s at %s:%d", a, b, filepath.Base(pos.Filename), pos.Line))
		}
		findings = append(findings, Finding{
			Pos:   fset.Position(g.edges[cycle[0]][cycle[1]]),
			Check: "lockorder",
			Msg: "potential deadlock: lock-order cycle " + strings.Join(append(hops, hops[0]), " -> ") +
				" (" + strings.Join(witnesses, ", ") + ")",
		})
	}
	return findings
}

// shortestCycle searches breadth-first from start back to itself through
// the component, neighbours in sorted order for determinism.
func (g *lockGraph) shortestCycle(start string, scc map[string]bool) []string {
	prev := make(map[string]string)
	for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		var next []string
		for b := range g.edges[cur] {
			next = append(next, b)
		}
		slices.Sort(next)
		for _, b := range next {
			switch {
			case b == start:
				var back []string
				for c := cur; c != start; c = prev[c] {
					back = append(back, c)
				}
				slices.Reverse(back)
				return append(append([]string{start}, back...), start)
			case scc[b] && prev[b] == "":
				prev[b] = cur
				queue = append(queue, b)
			}
		}
	}
	return nil
}

// fsetOf returns the module's shared FileSet (every loaded package comes
// from one Loader, so any package's fset positions all tokens).
func fsetOf(mod *Module) *token.FileSet {
	if len(mod.Pkgs) > 0 {
		return mod.Pkgs[0].Fset
	}
	return token.NewFileSet()
}
