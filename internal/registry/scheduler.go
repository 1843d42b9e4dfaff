package registry

import (
	"fmt"
	"sort"
	"time"
)

// CandidateSeq streams eligible hosts to a Scheduler, in registration
// order. The scheduler pulls candidates by calling the sequence with a yield
// callback and stops the stream by returning false from it — so first fit
// inspects exactly as many hosts as it places while least loaded drains the
// stream. The sequence is only valid for the duration of the Place call and
// is produced under the registry lock: schedulers must not call back into
// the Registry from inside it.
type CandidateSeq func(yield func(HostInfo) bool)

// all drains the stream into a slice, in stream order.
func (seq CandidateSeq) all() []HostInfo {
	var out []HostInfo
	seq(func(h HostInfo) bool {
		out = append(out, h)
		return true
	})
	return out
}

// Scheduler is the pluggable placement policy: which eligible hosts receive
// a process's ranks. Eligibility (liveness, reservations, destination
// policy, schema fit) is decided by the registry before a host reaches the
// scheduler; the scheduler only ranks.
//
// Implementations must be safe for concurrent use; the registry calls them
// from every decision path.
type Scheduler interface {
	// Name identifies the scheduler in policies and traces.
	Name() string
	// Place picks n distinct hosts for proc from the candidate stream — a
	// migration destination is n = 1, a gang its rank count. Returning
	// false declines the placement (a migration is then delegated to the
	// parent registry, if configured; a gang stays queued).
	Place(proc ProcInfo, n int, candidates CandidateSeq) ([]HostInfo, bool)
}

// SchedulerByName resolves the built-in schedulers, for the pl_scheduler
// policy-file key and command-line flags.
func SchedulerByName(name string) (Scheduler, error) {
	switch name {
	case "", "firstfit", "first-fit":
		return FirstFitScheduler{}, nil
	case "leastloaded", "least-loaded":
		return LeastLoadedScheduler{}, nil
	default:
		return nil, fmt.Errorf("registry: unknown scheduler %q", name)
	}
}

// selectLatestCompletion is the paper's process choice (Section 4) and the
// registry's own rule, not a per-scheduler one: the process with the latest
// estimated completion time, so that one migration relieves the host for the
// longest.
func selectLatestCompletion(cpuSpeed float64, procs []ProcInfo) (ProcInfo, bool) {
	if len(procs) == 0 {
		return ProcInfo{}, false
	}
	best := procs[0]
	bestDone := estimatedDone(procs[0], cpuSpeed)
	for _, p := range procs[1:] {
		if done := estimatedDone(p, cpuSpeed); done.After(bestDone) {
			best, bestDone = p, done
		}
	}
	return best, true
}

func estimatedDone(p ProcInfo, cpuSpeed float64) time.Time {
	if p.Schema == nil {
		return p.Start
	}
	return p.Schema.EstimatedCompletion(p.Start, cpuSpeed)
}

// FirstFitScheduler is the paper's placement and the default: the first n
// eligible hosts in registration order.
type FirstFitScheduler struct{}

// Name implements Scheduler.
func (FirstFitScheduler) Name() string { return "firstfit" }

// Place implements Scheduler: the first n candidates win.
func (FirstFitScheduler) Place(proc ProcInfo, n int, candidates CandidateSeq) ([]HostInfo, bool) {
	picked := make([]HostInfo, 0, n)
	candidates(func(h HostInfo) bool {
		picked = append(picked, h)
		return len(picked) < n
	})
	return picked, len(picked) == n
}

// LeastLoadedScheduler drains the candidate stream and picks the hosts with
// the lowest one-minute load average, breaking ties toward the earlier
// registration — a better spread than first fit when many hosts qualify,
// at the cost of scanning them all.
type LeastLoadedScheduler struct{}

// Name implements Scheduler.
func (LeastLoadedScheduler) Name() string { return "leastloaded" }

// Place implements Scheduler: drain the stream and keep the n least-loaded
// hosts, ties broken toward earlier registration (the stream order), so a
// gang spreads onto the quietest corner of the fleet.
func (LeastLoadedScheduler) Place(proc ProcInfo, n int, candidates CandidateSeq) ([]HostInfo, bool) {
	all := candidates.all()
	if len(all) < n {
		return nil, false
	}
	// Stable selection: sort by load, preserving stream order on ties.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Status.Load1 < all[j].Status.Load1 })
	return all[:n], true
}
