package jobs

import "fmt"

// Policy shapes one admission cycle: the order pending jobs are considered
// in, whether a blocked job may preempt running work, and whether the cycle
// continues past a blocked job. The three stock policies are the shoot-out
// of -exp multijob:
//
//   - FIFO: submission order, strict head-of-line blocking, no preemption —
//     the baseline batch scheduler.
//   - Priority-preemptive: priority order; a blocked high-priority gang
//     evicts victims from the lowest-priority running jobs; the cycle stops
//     at the first job that stays blocked (no skipping, so lower priorities
//     cannot starve admitted-but-blocked higher ones).
//   - Backfill: submission order, but the cycle walks past blocked jobs and
//     admits any later job that fits — makespan over fairness, without
//     preemption.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Before reports whether pending job a is considered before b. The
	// planner stable-sorts the pending snapshot with it, so jobs neither
	// precedes keep their snapshot order.
	Before(a, b *JobView) bool
	// Preemptive reports whether blocked jobs may evict lower-priority
	// running jobs.
	Preemptive() bool
	// Backfill reports whether the cycle continues past a blocked job.
	Backfill() bool
}

// FIFO is strict submission-order admission with head-of-line blocking.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Before implements Policy: ascending submission sequence.
func (FIFO) Before(a, b *JobView) bool { return a.Seq < b.Seq }

// Preemptive implements Policy.
func (FIFO) Preemptive() bool { return false }

// Backfill implements Policy.
func (FIFO) Backfill() bool { return false }

// PriorityPreemptive admits in priority order and lets blocked gangs evict
// strictly lower-priority running jobs.
type PriorityPreemptive struct{}

// Name implements Policy.
func (PriorityPreemptive) Name() string { return "priority-preemptive" }

// Before implements Policy: descending priority, submission order within a
// priority.
func (PriorityPreemptive) Before(a, b *JobView) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Seq < b.Seq
}

// Preemptive implements Policy.
func (PriorityPreemptive) Preemptive() bool { return true }

// Backfill implements Policy.
func (PriorityPreemptive) Backfill() bool { return false }

// Backfill is FIFO order without head-of-line blocking: jobs behind a
// blocked head are admitted when they fit.
type Backfill struct{}

// Name implements Policy.
func (Backfill) Name() string { return "backfill" }

// Before implements Policy: ascending submission sequence.
func (Backfill) Before(a, b *JobView) bool { return FIFO{}.Before(a, b) }

// Preemptive implements Policy.
func (Backfill) Preemptive() bool { return false }

// Backfill implements Policy.
func (Backfill) Backfill() bool { return true }

// Policies returns the stock policy set, in shoot-out order.
func Policies() []Policy {
	return []Policy{FIFO{}, PriorityPreemptive{}, Backfill{}}
}

// PolicyByName resolves a stock policy.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("jobs: unknown policy %q", name)
}
