package jobs

// The admission planner. PlanCycle is a pure function of a policy, the
// pending queue and a cluster snapshot: no clocks, no goroutines, no
// randomness. The live dispatcher (core.System) and the scenario.Runner
// discrete simulation both call it, so a policy decision observed in the
// simulation is the same decision the live control plane makes — and the
// whole schedule is deterministic given the submission sequence.

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
// simulation its fixed fleet order) — the planner's choices follow it.
type ClusterView struct {
	Hosts []HostView
	// Running snapshots the running jobs (placements must agree with
	// Hosts[].Job).
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
	// EvictRequeue the victim's entire placement empties; Hosts still
	// lists only the ones the admitted job takes.
	Hosts []string
	// Moves maps each contested host to its migration destination
	// (EvictMigrate only).
	Moves map[string]string
}

// Admission is one planned job start.
type Admission struct {
	Job string
	// Hosts is the target placement, len == Gang: free hosts first, then
	// hosts vacated by the evictions.
	Hosts []string
	// Evictions empty the contested hosts before the gang launches.
	Evictions []Eviction
}

// PlanCycle runs one admission cycle: considers pending jobs in policy
// order and plans an admission for each that fits — directly on free hosts,
// or (preemptive policies) by evicting strictly lower-priority running
// jobs. A job that does not fit blocks the cycle unless the policy
// backfills. The returned admissions are consistent as a set: no host is
// assigned twice, and every eviction's hosts feed exactly one admission.
func PlanCycle(p Policy, pending []JobView, view ClusterView) []Admission {
	st := newPlanState(view)
	var plan []Admission
	for _, job := range p.Order(pending) {
		adm, ok := st.admit(job, p.Preemptive())
		if ok {
			plan = append(plan, adm)
			continue
		}
		if !p.Backfill() {
			break
		}
	}
	return plan
}

// planState is the cycle's working occupancy.
type planState struct {
	hostOrder []string
	occ       map[string]string // host -> occupying job ("" free)
	running   map[string]*victimState
	runOrder  []string
	eligible  func(job, host string) bool
}

// victimState is one running job's mutable placement during the cycle.
type victimState struct {
	view  JobView
	hosts []string // current placement (mutates under shrink/migrate)
	gone  bool     // requeued this cycle
}

func newPlanState(view ClusterView) *planState {
	st := &planState{
		occ:      make(map[string]string, len(view.Hosts)),
		running:  make(map[string]*victimState, len(view.Running)),
		eligible: view.Eligible,
	}
	if st.eligible == nil {
		st.eligible = func(string, string) bool { return true }
	}
	for _, h := range view.Hosts {
		st.hostOrder = append(st.hostOrder, h.Name)
		st.occ[h.Name] = h.Job
	}
	for _, r := range view.Running {
		st.running[r.Name] = &victimState{view: r, hosts: append([]string(nil), r.Hosts...)}
		st.runOrder = append(st.runOrder, r.Name)
	}
	return st
}

// freeFor lists the free hosts eligible for a job, in fleet order.
func (st *planState) freeFor(job string) []string {
	var out []string
	for _, h := range st.hostOrder {
		if st.occ[h] == "" && st.eligible(job, h) {
			out = append(out, h)
		}
	}
	return out
}

// admit plans one job's admission against the working occupancy, mutating
// it only on success.
func (st *planState) admit(job JobView, preemptive bool) (Admission, bool) {
	free := st.freeFor(job.Name)
	if len(free) >= job.Gang {
		hosts := free[:job.Gang]
		for _, h := range hosts {
			st.occ[h] = job.Name
		}
		return Admission{Job: job.Name, Hosts: append([]string(nil), hosts...)}, true
	}
	if !preemptive {
		return Admission{}, false
	}
	return st.preempt(job, free)
}

// preempt covers a gang's shortfall from strictly lower-priority running
// jobs. All selection is tentative — the working occupancy mutates only
// once the full gang is covered.
func (st *planState) preempt(job JobView, free []string) (Admission, bool) {
	needed := job.Gang - len(free)
	// Free hosts consumed so far this admission (the direct ones plus any
	// migration destinations), so two victims don't reuse a destination.
	consumed := make(map[string]bool, job.Gang)
	for _, h := range free {
		consumed[h] = true
	}

	type plannedEvict struct {
		v       *victimState
		mode    EvictMode
		vacated []string
		moves   map[string]string
	}
	var evicts []plannedEvict

	for _, name := range st.victimOrder(job.Priority) {
		if needed == 0 {
			break
		}
		v := st.running[name]
		// Victim hosts the admitting job could take, scanned from the tail
		// of the placement: shrink retires the highest ranks first, the
		// natural order for an elastic world.
		var contestable []string
		for i := len(v.hosts) - 1; i >= 0; i-- {
			if st.eligible(job.Name, v.hosts[i]) {
				contestable = append(contestable, v.hosts[i])
			}
		}
		if len(contestable) == 0 {
			continue
		}
		take := min(needed, len(contestable))
		vacated := contestable[:take]

		switch {
		case v.view.Elastic && len(v.hosts)-take >= v.view.MinWorld:
			evicts = append(evicts, plannedEvict{v: v, mode: EvictShrink, vacated: vacated})
		default:
			// Try to move the contested ranks onto leftover free hosts
			// that fit the victim. Any free host fitting the admitting job
			// is already consumed, so destinations exist only when the
			// fleet is heterogeneous — the victim fits hosts the admitted
			// job cannot use.
			var dests []string
			for _, h := range st.hostOrder {
				if len(dests) == take {
					break
				}
				if st.occ[h] == "" && !consumed[h] && st.eligible(v.view.Name, h) {
					dests = append(dests, h)
				}
			}
			if len(dests) == take {
				moves := make(map[string]string, take)
				for i, h := range vacated {
					moves[h] = dests[i]
					consumed[dests[i]] = true
				}
				evicts = append(evicts, plannedEvict{v: v, mode: EvictMigrate, vacated: vacated, moves: moves})
			} else {
				// Requeue empties the whole placement: every eligible host
				// can feed the gang, and the rest go back to the pool.
				vacated = contestable[:min(needed, len(contestable))]
				take = len(vacated)
				evicts = append(evicts, plannedEvict{v: v, mode: EvictRequeue, vacated: vacated})
			}
		}
		needed -= take
	}
	if needed > 0 {
		return Admission{}, false
	}

	// Covered: apply the plan to the working occupancy.
	adm := Admission{Job: job.Name, Hosts: append([]string(nil), free...)}
	for _, pe := range evicts {
		ev := Eviction{Job: pe.v.view.Name, Mode: pe.mode, Hosts: append([]string(nil), pe.vacated...), Moves: pe.moves}
		adm.Evictions = append(adm.Evictions, ev)
		adm.Hosts = append(adm.Hosts, pe.vacated...)
		switch pe.mode {
		case EvictShrink:
			pe.v.hosts = without(pe.v.hosts, pe.vacated)
		case EvictMigrate:
			moved := append([]string(nil), pe.v.hosts...)
			for i, h := range moved {
				if dest, ok := pe.moves[h]; ok {
					moved[i] = dest
					st.occ[dest] = pe.v.view.Name
				}
			}
			pe.v.hosts = moved
		case EvictRequeue:
			for _, h := range pe.v.hosts {
				st.occ[h] = ""
			}
			pe.v.hosts = nil
			pe.v.gone = true
		}
	}
	for _, h := range adm.Hosts {
		st.occ[h] = job.Name
	}
	return adm, true
}

// victimOrder lists the running jobs a gang of the given priority may
// evict: strictly lower priority, lowest priority first, newest submission
// first within a priority (least sunk cost), skipping jobs already
// requeued this cycle.
func (st *planState) victimOrder(priority int) []string {
	var out []string
	for _, name := range st.runOrder {
		v := st.running[name]
		if v.gone || len(v.hosts) == 0 || v.view.Priority >= priority {
			continue
		}
		out = append(out, name)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := st.running[out[j-1]], st.running[out[j]]
			if a.view.Priority < b.view.Priority ||
				(a.view.Priority == b.view.Priority && a.view.Seq > b.view.Seq) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// without returns hosts minus the removed set, preserving order.
func without(hosts, removed []string) []string {
	drop := make(map[string]bool, len(removed))
	for _, h := range removed {
		drop[h] = true
	}
	var out []string
	for _, h := range hosts {
		if !drop[h] {
			out = append(out, h)
		}
	}
	return out
}
