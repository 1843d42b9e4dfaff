package rules

import (
	"fmt"
	"slices"
	"sync"

	"autoresched/internal/sysinfo"
)

// Engine holds a host's rule set and evaluates it against system-information
// snapshots. It is the monitor's "rule-evaluator" module (Figure 2).
type Engine struct {
	probes *sysinfo.Probes

	mu    sync.RWMutex
	rules map[int]*Rule
	// numbers are the installed rule numbers, ascending. Add replaces the
	// slice rather than growing it in place, so a reader holding it under
	// the read lock may walk it after releasing the lock.
	numbers []int
	root    int // rule number deciding the host state; 0 = worst of all rules
}

// NewEngine returns an engine evaluating probes from the given registry
// (nil selects sysinfo.StandardProbes).
func NewEngine(probes *sysinfo.Probes) *Engine {
	if probes == nil {
		probes = sysinfo.StandardProbes()
	}
	return &Engine{probes: probes, rules: make(map[int]*Rule)}
}

// Add validates and installs a rule. Installing a rule with an existing
// number replaces it (rules are reconfigurable at runtime).
func (e *Engine) Add(r *Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rules[r.Number]; !ok {
		i, _ := slices.BinarySearch(e.numbers, r.Number)
		e.numbers = slices.Insert(slices.Clip(e.numbers), i, r.Number)
	}
	e.rules[r.Number] = r
	return nil
}

// LoadFile parses a rule file from disk and installs its rules.
func (e *Engine) LoadFile(path string) (int, error) {
	parsed, err := ParseRuleFile(path)
	if err != nil {
		return 0, err
	}
	for _, rule := range parsed {
		if err := e.Add(rule); err != nil {
			return 0, err
		}
	}
	return len(parsed), nil
}

// SetRoot designates the rule whose grade decides the host state. Root 0
// restores the default: the worst grade across all installed rules.
func (e *Engine) SetRoot(number int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.root = number
}

// Rules returns the installed rules sorted by number.
func (e *Engine) Rules() []*Rule {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Rule, len(e.numbers))
	for i, n := range e.numbers {
		out[i] = e.rules[n]
	}
	return out
}

// EvalRule evaluates one rule (recursively for complex rules) against a
// snapshot and returns its grade. Rule cycles are reported as errors.
func (e *Engine) EvalRule(number int, snap sysinfo.Snapshot) (Grade, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.evalLocked(number, snap, make(map[int]bool))
}

func (e *Engine) evalLocked(number int, snap sysinfo.Snapshot, visiting map[int]bool) (Grade, error) {
	r, ok := e.rules[number]
	if !ok {
		return GradeFree, fmt.Errorf("rules: no rule %d", number)
	}
	if visiting[number] {
		return GradeFree, fmt.Errorf("rules: cycle through rule %d (%s)", number, r.Name)
	}
	switch r.Type {
	case Simple:
		return r.evalSimple(e.probes, snap)
	case Complex:
		visiting[number] = true
		defer delete(visiting, number)
		if r.expr == nil {
			if err := r.Validate(); err != nil {
				return GradeFree, err
			}
		}
		return r.expr.eval(func(ref int) (Grade, error) {
			return e.evalLocked(ref, snap, visiting)
		})
	default:
		return GradeFree, fmt.Errorf("rules: rule %d has unknown type", number)
	}
}

// Evaluate returns the host grade for a snapshot: the root rule's grade if a
// root is set, otherwise the worst grade across all installed rules.
func (e *Engine) Evaluate(snap sysinfo.Snapshot) (Grade, error) {
	e.mu.RLock()
	root, numbers := e.root, e.numbers
	e.mu.RUnlock()

	if root != 0 {
		return e.EvalRule(root, snap)
	}
	worst := GradeFree
	for _, n := range numbers {
		g, err := e.EvalRule(n, snap)
		if err != nil {
			return GradeFree, err
		}
		if g > worst {
			worst = g
		}
	}
	return worst, nil
}

// State returns the coarse three-state projection of Evaluate.
func (e *Engine) State(snap sysinfo.Snapshot) (State, error) {
	g, err := e.Evaluate(snap)
	if err != nil {
		return Free, err
	}
	return g.State(), nil
}
