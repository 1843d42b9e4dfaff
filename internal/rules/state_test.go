package rules

import (
	"testing"
	"testing/quick"
)

// TestTable1Semantics encodes Table 1 ("System State Description") exactly:
// state x {loaded, migrate in, migrate out}.
func TestTable1Semantics(t *testing.T) {
	cases := []struct {
		state      State
		loaded     bool
		migrateIn  bool
		migrateOut bool
	}{
		{Free, false, true, false},
		{Busy, true, false, false},
		{Overloaded, true, false, true},
	}
	for _, c := range cases {
		if got := c.state.Loaded(); got != c.loaded {
			t.Errorf("%v.Loaded() = %v, want %v", c.state, got, c.loaded)
		}
		if got := c.state.AcceptsMigration(); got != c.migrateIn {
			t.Errorf("%v.AcceptsMigration() = %v, want %v", c.state, got, c.migrateIn)
		}
		if got := c.state.WantsOffload(); got != c.migrateOut {
			t.Errorf("%v.WantsOffload() = %v, want %v", c.state, got, c.migrateOut)
		}
	}
}

func TestUnavailableNeverAcceptsOrOffloads(t *testing.T) {
	if Unavailable.AcceptsMigration() || Unavailable.WantsOffload() {
		t.Fatal("unavailable host must neither accept nor offload")
	}
}

func TestStateStringRoundTrip(t *testing.T) {
	for _, s := range []State{Free, Busy, Overloaded, Unavailable} {
		got, err := ParseState(s.String())
		if err != nil {
			t.Fatalf("ParseState(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
	if _, err := ParseState("weird"); err == nil {
		t.Fatal("ParseState accepted garbage")
	}
	if got := State(42).String(); got != "State(42)" {
		t.Fatalf("unknown state string = %q", got)
	}
}

func TestGradeStateBoundaries(t *testing.T) {
	cases := []struct {
		g    Grade
		want State
	}{
		{0, Free},
		{0.49, Free},
		{0.5, Busy},
		{1, Busy},
		{1.49, Busy},
		{1.5, Overloaded},
		{2, Overloaded},
		{3.7, Overloaded},
		{-1, Free},
	}
	for _, c := range cases {
		if got := c.g.State(); got != c.want {
			t.Errorf("Grade(%v).State() = %v, want %v", float64(c.g), got, c.want)
		}
	}
}

// Property: State() is monotone in the grade — a worse grade never maps to
// a better state.
func TestGradeStateMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return Grade(a).State() <= Grade(b).State()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
