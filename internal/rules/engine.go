package rules

import (
	"fmt"
	"sort"
	"sync"

	"autoresched/internal/sysinfo"
)

// Engine holds a host's rule set and evaluates it against system-information
// snapshots. It is the monitor's "rule-evaluator" module (Figure 2).
type Engine struct {
	probes *sysinfo.Probes

	mu    sync.RWMutex
	rules map[int]*Rule
	root  int // rule number deciding the host state; 0 = worst of all rules
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
	out := make([]*Rule, 0, len(e.rules))
	for _, r := range e.rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
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
	root := e.root
	numbers := make([]int, 0, len(e.rules))
	for n := range e.rules {
		numbers = append(numbers, n)
	}
	e.mu.RUnlock()

	if root != 0 {
		return e.EvalRule(root, snap)
	}
	if len(numbers) == 0 {
		return GradeFree, nil
	}
	sort.Ints(numbers)
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
