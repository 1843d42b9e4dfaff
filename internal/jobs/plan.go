package jobs

// The admission planner. PlanCycle is a pure function of a policy, the
// pending queue and a cluster snapshot: no clocks, no goroutines, no
// randomness. The live dispatcher (core.System) and the scenario.Runner
// discrete simulation both call it, so a policy decision observed in the
// simulation is the same decision the live control plane makes — and the
// whole schedule is deterministic given the submission sequence.

import (
	"cmp"
	"slices"
)

// JobView is the planner's snapshot of one job.
type JobView struct {
	Name     string
	Priority int
	Gang     int
	Elastic  bool
	MinWorld int
	// Seq is the submission sequence number (FIFO order).
	Seq int64
	// Hosts is the current placement in rank order (running jobs only).
	Hosts []string
}

// HostView is the planner's snapshot of one host.
type HostView struct {
	Name string
	// Job names the running job occupying the host; empty means free.
	Job string
}

// ClusterView is the planner's input snapshot. Hosts must be in a
// deterministic order (the live dispatcher uses registration order, the
// simulation its fixed fleet order) — the planner's choices follow it. The
// planner reads the view in place and never writes it.
type ClusterView struct {
	Hosts []HostView
	// Running snapshots the running jobs. A placement must agree with
	// Hosts[].Job and list only hosts in Hosts: core drops a host that an
	// in-flight admission has reserved or whose lease has expired.
	Running []JobView
	// Eligible reports whether a host can run a job's ranks (the schema
	// fit). Nil means every host fits every job.
	Eligible func(job, host string) bool
}

// EvictMode is how a preemption vacates a victim's hosts.
type EvictMode string

const (
	// EvictRequeue checkpoints and stops the whole victim; it goes back to
	// Pending and reruns later (restored from its checkpoint when one
	// exists). The fallback when nothing gentler applies.
	EvictRequeue EvictMode = "requeue"
	// EvictShrink takes only the contested ranks of an elastic victim; the
	// survivors keep running at a world no smaller than MinWorld.
	EvictShrink EvictMode = "shrink"
	// EvictMigrate live-migrates the contested ranks onto free hosts that
	// fit the victim (but not the admitted job — the heterogeneous case);
	// the victim keeps running at full strength.
	EvictMigrate EvictMode = "migrate"
)

// Eviction is one victim's part of an admission.
type Eviction struct {
	// Job is the victim.
	Job  string
	Mode EvictMode
	// Hosts are the victim hosts handed to the admitted job. For
	// EvictRequeue the whole victim stops, but the rest of its placement
	// stays with it until it is Pending again: those hosts are free from
	// the next cycle, not to a later admission in this one.
	Hosts []string
	// Moves maps each contested host to its migration destination
	// (EvictMigrate only). The admission's reservation holds each
	// destination until the gang lands, and no later admission vacates it.
	Moves map[string]string
}

// Admission is one planned job start.
type Admission struct {
	Job string
	// Hosts is the target placement, len == Gang: free hosts first, then
	// hosts vacated by the evictions. The admission reserves them and the
	// evictions' Moves destinations.
	Hosts []string
	// Evictions empty the contested hosts before the gang launches.
	Evictions []Eviction
}

// PlanCycle runs one admission cycle: considers pending jobs in policy
// order and plans an admission for each that fits — directly on free hosts,
// or (preemptive policies) by evicting strictly lower-priority running
// jobs. A job that does not fit blocks the cycle unless the policy
// backfills. The returned admissions are consistent as a set and can be
// reserved as written: every admission host is free in the view or vacated
// by one of that admission's own evictions, no host is assigned twice as
// an admission host or a migration destination, and every eviction's hosts
// feed exactly one admission.
// PlanCycle reads pending and view in place and writes neither.
func PlanCycle(p Policy, pending []JobView, view ClusterView) []Admission {
	order := make([]int32, len(pending))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		switch {
		case p.Before(&pending[a], &pending[b]):
			return -1
		case p.Before(&pending[b], &pending[a]):
			return 1
		}
		return 0
	})
	st := planState{view: view, eligible: view.Eligible}
	if st.eligible == nil {
		st.eligible = func(string, string) bool { return true }
	}
	for i := range view.Hosts {
		if view.Hosts[i].Job == "" {
			st.free++
		}
	}
	st.taken = make(map[string]bool, st.free)
	var plan []Admission
	for _, i := range order {
		adm, ok := st.admit(&pending[i], p.Preemptive())
		if ok {
			plan = append(plan, adm)
		} else if !p.Backfill() {
			break
		}
	}
	return plan
}

// planState is the cycle's working state: an overlay on the view it was
// handed, whose Hosts and Running it reads in place and never writes.
type planState struct {
	view     ClusterView
	eligible func(job, host string) bool
	// taken holds the hosts free in the view that this cycle has given
	// out, to an admission or as a migration destination. A cycle never
	// frees a host and never vacates one it gave out, so a host is free
	// when the view says so and taken does not.
	taken map[string]bool
	// cursor indexes view.Hosts: no free host lies before it, and it only
	// moves forward. free is the number of free hosts, so a scan that has
	// passed that many stops.
	cursor, free int
	// placed parallels view.Running: each running job's placement this
	// cycle, nil once requeued. It aliases view.Running[i].Hosts until a
	// shrink or a migration replaces it; neither writes into it. byPriority
	// indexes view.Running in eviction order. Both are built at the cycle's
	// first preemption.
	placed     [][]string
	byPriority []int32
}

// isFree reports whether view.Hosts[i] is free this cycle.
func (st *planState) isFree(i int) bool {
	h := &st.view.Hosts[i]
	return h.Job == "" && !st.taken[h.Name]
}

// take gives out free hosts.
func (st *planState) take(hosts ...string) {
	for _, h := range hosts {
		st.taken[h] = true
	}
	st.free -= len(hosts)
}

// scanFree appends to dst the free hosts keep accepts, in fleet order from
// the cursor, until dst holds n or every free host has been passed, and
// moves the cursor up to the first free host it passes.
func (st *planState) scanFree(dst []string, n int, keep func(host string) bool) []string {
	first, seen := -1, 0
	i := st.cursor
	for ; i < len(st.view.Hosts) && len(dst) < n && seen < st.free; i++ {
		if !st.isFree(i) {
			continue
		}
		if first < 0 {
			first = i
		}
		seen++
		if h := st.view.Hosts[i].Name; keep(h) {
			if dst == nil {
				dst = make([]string, 0, n)
			}
			dst = append(dst, h)
		}
	}
	if first < 0 {
		first = i
	}
	st.cursor = first
	return dst
}

// admit plans one job's admission against the working state, changing
// the occupancy only on success.
func (st *planState) admit(job *JobView, preemptive bool) (Admission, bool) {
	free := st.scanFree(nil, job.Gang, func(h string) bool { return st.eligible(job.Name, h) })
	if len(free) < job.Gang {
		if !preemptive {
			return Admission{}, false
		}
		return st.preempt(job, free)
	}
	st.take(free...)
	return Admission{Job: job.Name, Hosts: free}, true
}

// preempt covers a gang's shortfall from strictly lower-priority running
// jobs. All selection is tentative — the occupancy and the placements
// change only once the full gang is covered.
func (st *planState) preempt(job *JobView, free []string) (Admission, bool) {
	needed := job.Gang - len(free)
	var evicts []Eviction
	var who []int32 // evicts[k] is of view.Running[who[k]]
	// Migration destinations taken so far this admission, so two victims
	// don't reuse one.
	var dests []string
	for _, vi := range st.victimOrder() {
		r, placed := &st.view.Running[vi], st.placed[vi]
		if needed == 0 || r.Priority >= job.Priority {
			break
		}
		// Victim hosts the admitting job could take, scanned from the tail
		// of the placement: shrink retires the highest ranks first, the
		// natural order for an elastic world. A taken host there is a
		// destination this cycle gave out, which it never vacates.
		var vacated []string
		for i := len(placed) - 1; i >= 0 && len(vacated) < needed; i-- {
			if !st.taken[placed[i]] && st.eligible(job.Name, placed[i]) {
				vacated = append(vacated, placed[i])
			}
		}
		if len(vacated) == 0 {
			continue
		}
		ev := Eviction{Job: r.Name, Mode: EvictShrink, Hosts: vacated}
		if !r.Elastic || len(placed)-len(vacated) < r.MinWorld {
			// Try to move the contested ranks onto leftover free hosts
			// that fit the victim. Any free host fitting the admitting job
			// is already in free, so destinations exist only when the
			// fleet is heterogeneous — the victim fits hosts the admitted
			// job cannot use.
			mark := len(dests)
			dests = st.scanFree(dests, mark+len(vacated), func(h string) bool {
				return !slices.Contains(free, h) && !slices.Contains(dests, h) && st.eligible(r.Name, h)
			})
			if len(dests)-mark == len(vacated) {
				ev.Mode, ev.Moves = EvictMigrate, make(map[string]string, len(vacated))
				for i, h := range vacated {
					ev.Moves[h] = dests[mark+i]
				}
			} else {
				// Requeue stops the whole victim: every eligible host can
				// feed the gang, and the rest stay with the victim until
				// it is Pending.
				dests, ev.Mode = dests[:mark], EvictRequeue
			}
		}
		evicts, who = append(evicts, ev), append(who, vi)
		needed -= len(vacated)
	}
	if needed > 0 {
		return Admission{}, false
	}

	// Covered: apply the plan to the working state.
	st.take(free...)
	hosts := free
	for k, ev := range evicts {
		hosts = append(hosts, ev.Hosts...)
		placed := st.placed[who[k]]
		switch ev.Mode {
		case EvictShrink:
			placed = slices.DeleteFunc(slices.Clone(placed), func(h string) bool { return slices.Contains(ev.Hosts, h) })
		case EvictMigrate:
			placed = slices.Clone(placed)
			for i, h := range placed {
				if dest, ok := ev.Moves[h]; ok {
					placed[i] = dest
					st.take(dest)
				}
			}
		case EvictRequeue:
			placed = nil
		}
		st.placed[who[k]] = placed
	}
	return Admission{Job: job.Name, Hosts: hosts, Evictions: evicts}, true
}

// victimOrder lists every running job in the order a gang evicts them:
// lowest priority first, newest submission first within a priority (least
// sunk cost). It is sorted once, at the cycle's first preemption; the
// caller stops at its own priority and skips the jobs with no hosts left.
func (st *planState) victimOrder() []int32 {
	if st.placed != nil {
		return st.byPriority
	}
	run := st.view.Running
	st.placed = make([][]string, len(run))
	st.byPriority = make([]int32, len(run))
	for i := range run {
		st.placed[i] = run[i].Hosts
		st.byPriority[i] = int32(i)
	}
	slices.SortFunc(st.byPriority, func(a, b int32) int {
		if c := cmp.Compare(run[a].Priority, run[b].Priority); c != 0 {
			return c
		}
		if c := cmp.Compare(run[b].Seq, run[a].Seq); c != 0 {
			return c
		}
		return cmp.Compare(b, a)
	})
	return st.byPriority
}
