package rules

import (
	"fmt"
	"strings"

	"autoresched/internal/sysinfo"
)

// Condition is one thresholded probe comparison, the unit the Section 5.3
// migration policies are written in ("1-min load average is greater than
// 2", "the number of active processes is less than 100", ...).
type Condition struct {
	Script    string
	Param     string
	Op        Op
	Threshold float64
	Desc      string
}

// Holds evaluates the condition against a snapshot.
func (c Condition) Holds(probes *sysinfo.Probes, snap sysinfo.Snapshot) (bool, error) {
	value, err := probes.Eval(c.Script, snap, c.Param)
	if err != nil {
		return false, fmt.Errorf("rules: condition %q: %w", c.String(), err)
	}
	return c.Op.compare(value, c.Threshold), nil
}

// String renders the condition for logs and experiment reports.
func (c Condition) String() string {
	if c.Desc != "" {
		return c.Desc
	}
	name := strings.TrimSuffix(c.Script, ".sh")
	if c.Param != "" {
		name += "(" + c.Param + ")"
	}
	return fmt.Sprintf("%s %s %g", name, c.Op, c.Threshold)
}

// MigrationPolicy is a Section 5.3 policy: when to migrate a process away
// from its source host and which hosts qualify as destinations.
//
// Trigger conditions are any-of over the source host's snapshot; source
// preconditions are all-of (policy 3's "communication flow no more than
// 5 MB/s" reads as a precondition — a heavily communicating process is not
// worth moving); destination conditions are all-of over the candidate's
// snapshot.
type MigrationPolicy struct {
	Name          string
	Migrate       bool // false disables migration entirely (Policy 1)
	Trigger       []Condition
	SourcePrecond []Condition
	Destination   []Condition
}

// ShouldMigrate reports whether the policy fires on the source snapshot:
// migration is enabled, at least one trigger holds, and every source
// precondition holds.
func (p *MigrationPolicy) ShouldMigrate(probes *sysinfo.Probes, snap sysinfo.Snapshot) (bool, error) {
	if !p.Migrate {
		return false, nil
	}
	triggered := len(p.Trigger) == 0
	for _, c := range p.Trigger {
		ok, err := c.Holds(probes, snap)
		if err != nil {
			return false, err
		}
		if ok {
			triggered = true
			break
		}
	}
	if !triggered {
		return false, nil
	}
	for _, c := range p.SourcePrecond {
		ok, err := c.Holds(probes, snap)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// DestinationOK reports whether a candidate host's snapshot satisfies every
// destination condition.
func (p *MigrationPolicy) DestinationOK(probes *sysinfo.Probes, snap sysinfo.Snapshot) (bool, error) {
	for _, c := range p.Destination {
		ok, err := c.Holds(probes, snap)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// The three policies of Table 2.

// Policy1 never migrates.
func Policy1() *MigrationPolicy {
	return &MigrationPolicy{Name: "policy1", Migrate: false}
}

// Policy2 migrates when the 1-minute load average exceeds 2 or the process
// count exceeds 150; a destination must have load below 1 and fewer than
// 100 processes. It is blind to communication state.
func Policy2() *MigrationPolicy {
	return &MigrationPolicy{
		Name:    "policy2",
		Migrate: true,
		Trigger: []Condition{
			{Script: "loadAvg.sh", Param: "1", Op: OpGreater, Threshold: 2},
			{Script: "numProcs.sh", Op: OpGreater, Threshold: 150},
		},
		Destination: []Condition{
			{Script: "loadAvg.sh", Param: "1", Op: OpLess, Threshold: 1},
			{Script: "numProcs.sh", Op: OpLess, Threshold: 100},
		},
	}
}

// Policy3 extends Policy2 with communication awareness: the source's flow
// must be at most 5 MB/s for the migration to be worthwhile, and a
// destination's flow must be at most 3 MB/s.
func Policy3() *MigrationPolicy {
	p := Policy2()
	p.Name = "policy3"
	p.SourcePrecond = []Condition{
		{Script: "netFlow.sh", Param: "max", Op: OpLessEqual, Threshold: 5,
			Desc: "source communication flow <= 5 MB/s"},
	}
	p.Destination = append(p.Destination, Condition{
		Script: "netFlow.sh", Param: "max", Op: OpLessEqual, Threshold: 3,
		Desc: "destination communication flow <= 3 MB/s",
	})
	return p
}
