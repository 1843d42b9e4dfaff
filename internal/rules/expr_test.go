package rules

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func evalExprString(t *testing.T, src string, env map[int]Grade) Grade {
	t.Helper()
	node, err := parseExpr(src)
	if err != nil {
		t.Fatalf("parseExpr(%q): %v", src, err)
	}
	g, err := node.eval(func(n int) (Grade, error) { return env[n], nil })
	if err != nil {
		t.Fatalf("eval(%q): %v", src, err)
	}
	return g
}

func TestFigure4Expression(t *testing.T) {
	src := "( 40% * r4 + 30% * r1 + 30% * r3 ) & r2"

	// All four rules busy: weighted sum is 1.0; & with busy r2 stays busy.
	env := map[int]Grade{1: GradeBusy, 2: GradeBusy, 3: GradeBusy, 4: GradeBusy}
	if g := evalExprString(t, src, env); g.State() != Busy {
		t.Fatalf("all busy => %v, want busy", g.State())
	}

	// The paper: busy if one side busy and the other overloaded.
	env = map[int]Grade{1: GradeOverloaded, 2: GradeBusy, 3: GradeOverloaded, 4: GradeOverloaded}
	if g := evalExprString(t, src, env); g.State() != Busy {
		t.Fatalf("sum overloaded & r2 busy => %v, want busy", g.State())
	}

	// Both sides overloaded: overloaded.
	env = map[int]Grade{1: GradeOverloaded, 2: GradeOverloaded, 3: GradeOverloaded, 4: GradeOverloaded}
	if g := evalExprString(t, src, env); g.State() != Overloaded {
		t.Fatalf("all overloaded => %v, want overloaded", g.State())
	}

	// r2 free dominates the & (a host with few sockets is not loaded under
	// this rule regardless of the weighted sum).
	env = map[int]Grade{1: GradeOverloaded, 2: GradeFree, 3: GradeOverloaded, 4: GradeOverloaded}
	if g := evalExprString(t, src, env); g.State() != Free {
		t.Fatalf("r2 free => %v, want free", g.State())
	}
}

func TestExprWeightedSum(t *testing.T) {
	env := map[int]Grade{1: 2, 3: 1, 4: 0}
	// 0.4*0 + 0.3*2 + 0.3*1 = 0.9
	got := evalExprString(t, "40% * r4 + 30% * r1 + 30% * r3", env)
	if math.Abs(float64(got)-0.9) > 1e-12 {
		t.Fatalf("weighted sum = %v, want 0.9", got)
	}
}

func TestExprOperators(t *testing.T) {
	env := map[int]Grade{1: 1, 2: 2}
	cases := []struct {
		src  string
		want float64
	}{
		{"r1 + r2", 3},
		{"r2 - r1", 1},
		{"r1 * r2", 2},
		{"r1 & r2", 1},
		{"r1 | r2", 2},
		{"2 & 1 | 0.2", 1},   // left-assoc: (2&1)|0.2 = 1
		{"r1 + r2 * 2", 5},   // * binds tighter than +
		{"(r1 + r2) * 2", 6}, // parentheses
		{"50%", 0.5},
		{"100% * r2", 2},
		{"1.5", 1.5},
		{"0.5 + 25%", 0.75},
	}
	for _, c := range cases {
		if got := evalExprString(t, c.src, env); math.Abs(float64(got)-c.want) > 1e-12 {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestExprParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "(", "(r1", "r", "r1 +", "& r1", "r1 r2", "r1 @ r2", "4 4", "r1)",
	} {
		if _, err := parseExpr(src); err == nil {
			t.Errorf("parseExpr(%q): want error", src)
		}
	}
}

func TestExprString(t *testing.T) {
	node, err := parseExpr("40%*r4 + r1 & r2")
	if err != nil {
		t.Fatal(err)
	}
	s := node.String()
	for _, frag := range []string{"r4", "r1", "r2", "&", "0.4"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

// Property: the parser never panics on arbitrary input — it returns a node
// or an error. Rule files are operator-supplied configuration, so parse
// robustness is a safety property.
func TestExprParserNeverPanicsProperty(t *testing.T) {
	alphabet := []byte("r0123456789.%&|()+-* \tXy")
	f := func(raw []uint8) bool {
		src := make([]byte, 0, len(raw))
		for _, b := range raw {
			src = append(src, alphabet[int(b)%len(alphabet)])
		}
		node, err := parseExpr(string(src))
		if err != nil {
			return true
		}
		// Parsed expressions must also evaluate without panicking.
		_, _ = node.eval(func(int) (Grade, error) { return GradeBusy, nil })
		_ = node.String()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the canonical String() form reparses to an expression with the
// same value under a fixed environment.
func TestExprStringRoundTripProperty(t *testing.T) {
	env := func(n int) (Grade, error) { return Grade(n%3) * 0.7, nil }
	srcs := []string{
		"r1", "r1 + r2", "r1 & r2 | r3", "(r1 + 2*r2) & 50%",
		"( 40% * r4 + 30% * r1 + 30% * r3 ) & r2", "1 - r2 + r3*r3",
	}
	f := func(idx uint8) bool {
		src := srcs[int(idx)%len(srcs)]
		a, err := parseExpr(src)
		if err != nil {
			return false
		}
		b, err := parseExpr(a.String())
		if err != nil {
			return false
		}
		va, err1 := a.eval(env)
		vb, err2 := b.eval(env)
		return err1 == nil && err2 == nil && math.Abs(float64(va-vb)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
