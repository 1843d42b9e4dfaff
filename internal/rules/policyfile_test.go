package rules

import (
	"path/filepath"
	"strings"
	"testing"

	"autoresched/internal/sysinfo"
)

func TestParseCondition(t *testing.T) {
	cases := []struct {
		in        string
		script    string
		param     string
		op        Op
		threshold float64
	}{
		{"loadAvg.sh(1) > 2", "loadAvg.sh", "1", OpGreater, 2},
		{"numProcs.sh > 150", "numProcs.sh", "", OpGreater, 150},
		{"netFlow.sh(max) <= 5", "netFlow.sh", "max", OpLessEqual, 5},
		{"memAvailPct.sh >= 10.5", "memAvailPct.sh", "", OpGreaterEqual, 10.5},
		{"processorStatus.sh < 45", "processorStatus.sh", "", OpLess, 45},
	}
	for _, c := range cases {
		got, err := ParseCondition(c.in)
		if err != nil {
			t.Fatalf("ParseCondition(%q): %v", c.in, err)
		}
		if got.Script != c.script || got.Param != c.param || got.Op != c.op || got.Threshold != c.threshold {
			t.Fatalf("ParseCondition(%q) = %+v", c.in, got)
		}
	}
}

func TestParseConditionErrors(t *testing.T) {
	for _, in := range []string{
		"", "loadAvg.sh", "loadAvg.sh > pig", "(1) > 2", "loadAvg.sh(1 > 2",
	} {
		if _, err := ParseCondition(in); err == nil {
			t.Errorf("ParseCondition(%q): want error", in)
		}
	}
}

// TestTable2PolicyFileMatchesBuiltins: the checked-in policy file and the
// code constructors make identical decisions on the Table 2 snapshots.
func TestTable2PolicyFileMatchesBuiltins(t *testing.T) {
	parsed, err := ParsePolicyFile(filepath.Join("testdata", "table2.policies"))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed %d policies", len(parsed))
	}
	builtins := []*MigrationPolicy{Policy1(), Policy2(), Policy3()}
	snaps := table2Snapshots()
	overloaded := sysinfo.Snapshot{Host: "src", Load1: 2.6, NumProcs: 60}
	commSrc := sysinfo.Snapshot{Host: "src", Load1: 5, NumProcs: 300, NetSentBps: 8e6}
	for i, p := range parsed {
		ref := builtins[i]
		if p.Name != ref.Name {
			t.Fatalf("policy %d name = %q, want %q", i, p.Name, ref.Name)
		}
		for _, src := range []sysinfo.Snapshot{overloaded, commSrc, snaps["ws4"]} {
			a, err1 := p.ShouldMigrate(probes, src)
			b, err2 := ref.ShouldMigrate(probes, src)
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("%s ShouldMigrate(%s) file=%v builtin=%v (%v,%v)", p.Name, src.Host, a, b, err1, err2)
			}
		}
		for host, snap := range snaps {
			a, err1 := p.DestinationOK(probes, snap)
			b, err2 := ref.DestinationOK(probes, snap)
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("%s DestinationOK(%s) file=%v builtin=%v", p.Name, host, a, b)
			}
		}
	}
}

func TestParsePoliciesErrors(t *testing.T) {
	for _, src := range []string{
		"pl_trigger: x > 1\n",                     // before any name
		"pl_name: p\npl_migrate: maybe\n",         // bad bool
		"pl_name: p\npl_trigger: nonsense\n",      // bad condition
		"pl_name: p\nbogus: 1\n",                  // unknown key
		"pl_name: p\npl_dest x > 1\n",             // missing colon
		"pl_name: p\npl_future: tolerated\n#",     // unknown pl_ key tolerated
		"pl_name: p\npl_scheduler: leastloaded\n", // a retired pl_ key too
	} {
		_, err := ParsePolicies(strings.NewReader(src))
		tolerated := strings.Contains(src, "pl_future") || strings.Contains(src, "pl_scheduler")
		if (err == nil) != tolerated {
			t.Errorf("ParsePolicies(%q): err = %v", src, err)
		}
	}
	if _, err := ParsePolicyFile(filepath.Join("testdata", "missing.policies")); err == nil {
		t.Error("missing file accepted")
	}
}
