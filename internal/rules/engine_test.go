package rules

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autoresched/internal/sysinfo"
)

func loadEngine(t *testing.T, file string) *Engine {
	t.Helper()
	e := NewEngine(nil)
	n, err := e.LoadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("LoadFile(%s): %v", file, err)
	}
	if n == 0 {
		t.Fatalf("LoadFile(%s): no rules", file)
	}
	return e
}

// TestFigure3Rule1 checks the paper's reading of rule processorStatus:
// idle above 50 free, 45..50 busy, below 45 overloaded.
func TestFigure3Rule1(t *testing.T) {
	e := loadEngine(t, "figure3.rules")
	cases := []struct {
		idle float64
		want State
	}{
		{80, Free},
		{50, Free},
		{49.9, Busy},
		{46, Busy},
		{45, Busy},
		{44.9, Overloaded},
		{10, Overloaded},
	}
	for _, c := range cases {
		g, err := e.EvalRule(1, sysinfo.Snapshot{CPUIdlePct: c.idle})
		if err != nil {
			t.Fatal(err)
		}
		if g.State() != c.want {
			t.Errorf("idle=%v => %v, want %v", c.idle, g.State(), c.want)
		}
	}
}

// TestFigure3Rule2 checks rule ntStatIpv4: sockets above 700 busy, above
// 900 overloaded.
func TestFigure3Rule2(t *testing.T) {
	e := loadEngine(t, "figure3.rules")
	cases := []struct {
		sockets int
		want    State
	}{
		{100, Free},
		{700, Free},
		{701, Busy},
		{900, Busy},
		{901, Overloaded},
	}
	for _, c := range cases {
		g, err := e.EvalRule(2, sysinfo.Snapshot{Sockets: c.sockets})
		if err != nil {
			t.Fatal(err)
		}
		if g.State() != c.want {
			t.Errorf("sockets=%d => %v, want %v", c.sockets, g.State(), c.want)
		}
	}
}

func TestEngineWorstOfDefault(t *testing.T) {
	e := loadEngine(t, "figure3.rules")
	// CPU free but sockets overloaded: worst of the two rules wins.
	s, err := e.State(sysinfo.Snapshot{CPUIdlePct: 99, Sockets: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s != Overloaded {
		t.Fatalf("state = %v, want overloaded", s)
	}
	s, err = e.State(sysinfo.Snapshot{CPUIdlePct: 99, Sockets: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s != Free {
		t.Fatalf("state = %v, want free", s)
	}
}

func TestFigure4ComplexRuleThroughEngine(t *testing.T) {
	e := loadEngine(t, "figure4.rules")
	e.SetRoot(5)

	// Everything loaded: load 3 (overloaded), idle 40 (overloaded), memory
	// 5% (overloaded), sockets 800 (busy). Weighted sum = 2; & busy = busy.
	snap := sysinfo.Snapshot{Load1: 3, CPUIdlePct: 40, MemAvailPct: 5, Sockets: 800}
	s, err := e.State(snap)
	if err != nil {
		t.Fatal(err)
	}
	if s != Busy {
		t.Fatalf("state = %v, want busy", s)
	}

	// Sockets overloaded too: overall overloaded.
	snap.Sockets = 950
	if s, err = e.State(snap); err != nil || s != Overloaded {
		t.Fatalf("state = %v (%v), want overloaded", s, err)
	}

	// Few sockets: the & forces free regardless of the weighted sum.
	snap.Sockets = 10
	if s, err = e.State(snap); err != nil || s != Free {
		t.Fatalf("state = %v (%v), want free", s, err)
	}
}

func TestEngineRootFallbackAndReset(t *testing.T) {
	e := loadEngine(t, "figure3.rules")
	e.SetRoot(1)
	s, err := e.State(sysinfo.Snapshot{CPUIdlePct: 99, Sockets: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s != Free {
		t.Fatalf("root=1 state = %v, want free (socket rule ignored)", s)
	}
	e.SetRoot(0)
	if s, _ = e.State(sysinfo.Snapshot{CPUIdlePct: 99, Sockets: 1000}); s != Overloaded {
		t.Fatalf("default state = %v, want overloaded", s)
	}
}

func TestEngineMissingRule(t *testing.T) {
	e := NewEngine(nil)
	if _, err := e.EvalRule(9, sysinfo.Snapshot{}); err == nil {
		t.Fatal("EvalRule on missing rule succeeded")
	}
	e.SetRoot(9)
	if _, err := e.State(sysinfo.Snapshot{}); err == nil {
		t.Fatal("State with missing root succeeded")
	}
}

func TestEngineEmptyIsFree(t *testing.T) {
	e := NewEngine(nil)
	s, err := e.State(sysinfo.Snapshot{})
	if err != nil || s != Free {
		t.Fatalf("empty engine state = %v (%v), want free", s, err)
	}
}

func TestEngineCycleDetection(t *testing.T) {
	e := NewEngine(nil)
	mustAdd := func(r *Rule) {
		if err := e.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&Rule{Number: 1, Name: "a", Type: Complex, Script: "r2"})
	mustAdd(&Rule{Number: 2, Name: "b", Type: Complex, Script: "r1"})
	if _, err := e.EvalRule(1, sysinfo.Snapshot{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
	// Self-cycle.
	mustAdd(&Rule{Number: 3, Name: "c", Type: Complex, Script: "r3 & r3"})
	if _, err := e.EvalRule(3, sysinfo.Snapshot{}); err == nil {
		t.Fatal("self cycle not detected")
	}
}

func TestEngineComplexReferencingMissingRule(t *testing.T) {
	e := NewEngine(nil)
	if err := e.Add(&Rule{Number: 1, Name: "x", Type: Complex, Script: "r77"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvalRule(1, sysinfo.Snapshot{}); err == nil {
		t.Fatal("missing referenced rule not reported")
	}
}

func TestEngineUnknownProbe(t *testing.T) {
	e := NewEngine(nil)
	if err := e.Add(&Rule{Number: 1, Name: "x", Type: Simple, Script: "nope.sh", Operator: OpLess}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvalRule(1, sysinfo.Snapshot{}); err == nil {
		t.Fatal("unknown probe not reported")
	}
}

func TestEngineRuleReplacement(t *testing.T) {
	e := NewEngine(nil)
	r1 := &Rule{Number: 1, Name: "v1", Type: Simple, Script: "numProcs.sh", Operator: OpGreater, Busy: 10, OverLd: 20}
	if err := e.Add(r1); err != nil {
		t.Fatal(err)
	}
	r2 := &Rule{Number: 1, Name: "v2", Type: Simple, Script: "numProcs.sh", Operator: OpGreater, Busy: 100, OverLd: 200}
	if err := e.Add(r2); err != nil {
		t.Fatal(err)
	}
	got := e.Rules()
	if len(got) != 1 {
		t.Fatalf("Rules() len = %d", len(got))
	}
	if got[0].Name != "v2" {
		t.Fatalf("rule 1 = %+v", got[0])
	}
}

func TestRuleValidateErrors(t *testing.T) {
	cases := []*Rule{
		{Number: 1, Type: Simple, Script: "x.sh", Operator: OpLess},      // no name
		{Number: 1, Name: "a", Type: Simple, Operator: OpLess},           // no script
		{Number: 1, Name: "a", Type: Simple, Script: "x", Operator: "~"}, // bad op
		{Number: 1, Name: "a", Type: Complex},                            // no expr
		{Number: 1, Name: "a", Type: Complex, Script: "(r1"},             // bad expr
		{Number: 1, Name: "a", Type: Type(9), Script: "x"},               // bad type
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, r)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	parsed, err := ParseRuleFile(filepath.Join("testdata", "figure4.rules"))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(parsed))
	}
	var b strings.Builder
	for _, r := range parsed {
		b.WriteString(r.Format())
		b.WriteString("\n")
	}
	again, err := ParseRules(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(again) != len(parsed) {
		t.Fatalf("round trip %d -> %d rules", len(parsed), len(again))
	}
	for i := range parsed {
		a, b := parsed[i], again[i]
		if a.Number != b.Number || a.Name != b.Name || a.Type != b.Type ||
			a.Script != b.Script || a.Operator != b.Operator || a.Param != b.Param ||
			a.Busy != b.Busy || a.OverLd != b.OverLd {
			t.Fatalf("rule %d changed: %+v vs %+v", a.Number, a, b)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"rl_name: orphan\n",                      // key before rl_number
		"rl_number: x\n",                         // bad number
		"rl_number: 1\nrl_name a\n",              // missing colon
		"rl_number: 1\nrl_name: a\nrl_type: z\n", // bad type
		"rl_number: 1\nrl_name: a\nrl_type: simple\nrl_script: s\nrl_operator: <\nrl_busy: pig\n",
		"rl_number: 1\nrl_name: a\nrl_type: complex\nrl_ruleNo: 1 z\nrl_script: r1\n",
		"bogus_key: 1\n",
	} {
		if _, err := ParseRules(strings.NewReader(src)); err == nil {
			t.Errorf("ParseRules(%q): want error", src)
		}
	}
}

func TestParseRuleFileMissing(t *testing.T) {
	if _, err := ParseRuleFile(filepath.Join(t.TempDir(), "none.rules")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}

func TestParseIgnoresUnknownRlKeys(t *testing.T) {
	src := "rl_number: 1\nrl_name: a\nrl_type: simple\nrl_script: numProcs.sh\nrl_operator: >\nrl_busy: 1\nrl_overLd: 2\nrl_future: whatever\n"
	parsed, err := ParseRules(strings.NewReader(src))
	if err != nil || len(parsed) != 1 {
		t.Fatalf("parse = %v, %v", parsed, err)
	}
}

// TestEvaluateAllocatesNothing: a monitor cycle's evaluation of the Figure 3
// rule set — the worst grade of every rule, in ascending number order —
// allocates nothing, and replacing a rule keeps one entry per number.
func TestEvaluateAllocatesNothing(t *testing.T) {
	e := loadEngine(t, "figure3.rules")
	snap := sysinfo.Snapshot{CPUIdlePct: 47, Sockets: 950}
	evaluate := func() {
		if g, err := e.Evaluate(snap); err != nil || g.State() != Overloaded {
			t.Fatalf("Evaluate = %v, %v; want overloaded", g, err)
		}
	}
	if avg := testing.AllocsPerRun(200, evaluate); avg != 0 {
		t.Errorf("Evaluate of the Figure 3 rules allocates %.1f objects per cycle, want 0", avg)
	}
	before := e.Rules()
	if err := e.Add(before[0]); err != nil {
		t.Fatal(err)
	}
	if after := e.Rules(); len(after) != len(before) || after[0].Number != 1 || after[1].Number != 2 {
		t.Errorf("rules after replacing rule 1: %v", after)
	}
}
