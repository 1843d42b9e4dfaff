// Package rules implements the paper's rule-based decision-making mechanism
// (Section 4): system states, simple rules fired against system-information
// probes, complex rules combining other rules through a small expression
// language (weighted sums and the '&'/'|' combinators of Figure 4), rule
// files in the rl_* format of Figures 3 and 4, the migration policies of
// Section 5.3, and the application schema of Section 3.3 (Schema,
// ParseSchema).
package rules

import "fmt"

// State is the simplified representation of a host's condition. The paper
// classifies states "with a fine granularity using a series of numbers" and
// presents the three-state view as a simplification; Grade is the underlying
// numeric representation and State its coarse projection.
type State int

const (
	// Free: the host is willing and able to accept incoming
	// migration-enabled applications.
	Free State = iota
	// Busy: the host no longer accepts incoming applications but does not
	// try to migrate its own out ("as is").
	Busy
	// Overloaded: the host needs to offload applications onto other hosts
	// in order to return to Busy or Free.
	Overloaded
	// Unavailable: the host has missed its soft-state refreshes and the
	// registry considers it gone.
	Unavailable
)

// String returns the lower-case state name used in protocol messages.
func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Busy:
		return "busy"
	case Overloaded:
		return "overloaded"
	case Unavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ParseState parses a state name produced by String.
func ParseState(s string) (State, error) {
	switch s {
	case "free":
		return Free, nil
	case "busy":
		return Busy, nil
	case "overloaded":
		return Overloaded, nil
	case "unavailable":
		return Unavailable, nil
	default:
		return Free, fmt.Errorf("rules: unknown state %q", s)
	}
}

// The three methods below encode Table 1 ("System State Description").

// Loaded reports whether the host is considered loaded.
func (s State) Loaded() bool { return s == Busy || s == Overloaded }

// AcceptsMigration reports whether the host accepts processes migrating in.
func (s State) AcceptsMigration() bool { return s == Free }

// WantsOffload reports whether the host tries to migrate processes out.
func (s State) WantsOffload() bool { return s == Overloaded }

// Grade is the fine-grained numeric state: 0 is free, 1 is busy, 2 is
// overloaded, with intermediate values produced by weighted complex rules.
type Grade float64

// Canonical grades of the three coarse states.
const (
	GradeFree       Grade = 0
	GradeBusy       Grade = 1
	GradeOverloaded Grade = 2
)

// State projects a grade onto the three-state view. Boundaries sit halfway
// between the canonical grades.
func (g Grade) State() State {
	switch {
	case g < 0.5:
		return Free
	case g < 1.5:
		return Busy
	default:
		return Overloaded
	}
}
