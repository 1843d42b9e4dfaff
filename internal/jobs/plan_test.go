package jobs

import (
	"fmt"
	"reflect"
	"testing"
)

// fleet builds n free hosts named h1..hn.
func fleet(n int) []HostView {
	out := make([]HostView, n)
	for i := range out {
		out[i] = HostView{Name: fmt.Sprintf("h%d", i+1)}
	}
	return out
}

func occupy(hosts []HostView, job string, names ...string) {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for i := range hosts {
		if set[hosts[i].Name] {
			hosts[i].Job = job
		}
	}
}

func TestPlanFIFOHeadOfLineBlocks(t *testing.T) {
	pending := []JobView{
		{Name: "big", Gang: 4, Seq: 1},
		{Name: "small", Gang: 1, Seq: 2},
	}
	view := ClusterView{Hosts: fleet(2)}
	plan := PlanCycle(FIFO{}, pending, view)
	if len(plan) != 0 {
		t.Fatalf("FIFO admitted %v past a blocked head", plan)
	}
}

func TestPlanBackfillWalksPastBlockedHead(t *testing.T) {
	pending := []JobView{
		{Name: "big", Gang: 4, Seq: 1},
		{Name: "small", Gang: 1, Seq: 2},
		{Name: "small2", Gang: 2, Seq: 3},
	}
	view := ClusterView{Hosts: fleet(2)}
	plan := PlanCycle(Backfill{}, pending, view)
	if len(plan) != 1 || plan[0].Job != "small" {
		t.Fatalf("backfill plan = %+v, want small admitted", plan)
	}
	// small2 no longer fits (one host left) — backfill keeps walking but
	// finds nothing else.
	if got := plan[0].Hosts; !reflect.DeepEqual(got, []string{"h1"}) {
		t.Fatalf("small placed on %v", got)
	}
}

func TestPlanFIFOAdmitsInOrder(t *testing.T) {
	pending := []JobView{
		{Name: "a", Gang: 2, Seq: 1},
		{Name: "b", Gang: 2, Seq: 2},
	}
	view := ClusterView{Hosts: fleet(4)}
	plan := PlanCycle(FIFO{}, pending, view)
	if len(plan) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	if !reflect.DeepEqual(plan[0].Hosts, []string{"h1", "h2"}) ||
		!reflect.DeepEqual(plan[1].Hosts, []string{"h3", "h4"}) {
		t.Fatalf("placements overlap or misorder: %+v", plan)
	}
}

func TestPlanPreemptionRequeuesLowestPriority(t *testing.T) {
	// Four hosts all busy: lo (prio 0, newest) on h3,h4; mid (prio 1) on
	// h1,h2. A high-priority gang of 2 must evict lo — the lowest priority
	// — by requeue (nowhere to migrate), not touch mid.
	hosts := fleet(4)
	occupy(hosts, "mid", "h1", "h2")
	occupy(hosts, "lo", "h3", "h4")
	view := ClusterView{
		Hosts: hosts,
		Running: []JobView{
			{Name: "mid", Priority: 1, Gang: 2, Seq: 1, Hosts: []string{"h1", "h2"}},
			{Name: "lo", Priority: 0, Gang: 2, Seq: 2, Hosts: []string{"h3", "h4"}},
		},
	}
	pending := []JobView{{Name: "hi", Priority: 2, Gang: 2, Seq: 3}}
	plan := PlanCycle(PriorityPreemptive{}, pending, view)
	if len(plan) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	adm := plan[0]
	if len(adm.Evictions) != 1 || adm.Evictions[0].Job != "lo" || adm.Evictions[0].Mode != EvictRequeue {
		t.Fatalf("evictions = %+v, want lo requeued", adm.Evictions)
	}
	if len(adm.Hosts) != 2 {
		t.Fatalf("admitted on %v", adm.Hosts)
	}
}

func TestPlanNoPreemptionOfEqualPriority(t *testing.T) {
	hosts := fleet(2)
	occupy(hosts, "peer", "h1", "h2")
	view := ClusterView{
		Hosts:   hosts,
		Running: []JobView{{Name: "peer", Priority: 1, Gang: 2, Seq: 1, Hosts: []string{"h1", "h2"}}},
	}
	pending := []JobView{{Name: "same", Priority: 1, Gang: 1, Seq: 2}}
	if plan := PlanCycle(PriorityPreemptive{}, pending, view); len(plan) != 0 {
		t.Fatalf("equal priority was preempted: %+v", plan)
	}
}

func TestPlanShrinksElasticVictim(t *testing.T) {
	hosts := fleet(4)
	occupy(hosts, "el", "h1", "h2", "h3", "h4")
	view := ClusterView{
		Hosts: hosts,
		Running: []JobView{
			{Name: "el", Priority: 0, Gang: 4, Elastic: true, MinWorld: 2, Seq: 1,
				Hosts: []string{"h1", "h2", "h3", "h4"}},
		},
	}
	pending := []JobView{{Name: "hi", Priority: 1, Gang: 2, Seq: 2}}
	plan := PlanCycle(PriorityPreemptive{}, pending, view)
	if len(plan) != 1 || len(plan[0].Evictions) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	ev := plan[0].Evictions[0]
	if ev.Mode != EvictShrink || ev.Job != "el" {
		t.Fatalf("eviction = %+v, want shrink of el", ev)
	}
	// Shrink retires the tail ranks first.
	if !reflect.DeepEqual(ev.Hosts, []string{"h4", "h3"}) {
		t.Fatalf("shrink vacated %v, want [h4 h3]", ev.Hosts)
	}
}

func TestPlanShrinkRespectsMinWorld(t *testing.T) {
	// el would have to drop below MinWorld=3, so it is requeued instead.
	hosts := fleet(4)
	occupy(hosts, "el", "h1", "h2", "h3", "h4")
	view := ClusterView{
		Hosts: hosts,
		Running: []JobView{
			{Name: "el", Priority: 0, Gang: 4, Elastic: true, MinWorld: 3, Seq: 1,
				Hosts: []string{"h1", "h2", "h3", "h4"}},
		},
	}
	pending := []JobView{{Name: "hi", Priority: 1, Gang: 2, Seq: 2}}
	plan := PlanCycle(PriorityPreemptive{}, pending, view)
	if len(plan) != 1 || len(plan[0].Evictions) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if got := plan[0].Evictions[0].Mode; got != EvictRequeue {
		t.Fatalf("eviction mode = %s, want requeue (MinWorld floor)", got)
	}
}

func TestPlanMigratesVictimOnHeterogeneousFleet(t *testing.T) {
	// hi fits only the two big hosts; victim vic (rigid, low priority)
	// occupies them but also fits the small spare hosts — its contested
	// ranks migrate instead of the job requeueing.
	hosts := []HostView{
		{Name: "big1", Job: "vic"}, {Name: "big2", Job: "vic"},
		{Name: "small1"}, {Name: "small2"},
	}
	big := map[string]bool{"big1": true, "big2": true}
	view := ClusterView{
		Hosts: hosts,
		Running: []JobView{
			{Name: "vic", Priority: 0, Gang: 2, Seq: 1, Hosts: []string{"big1", "big2"}},
		},
		Eligible: func(job, host string) bool {
			if job == "hi" {
				return big[host]
			}
			return true
		},
	}
	pending := []JobView{{Name: "hi", Priority: 1, Gang: 2, Seq: 2}}
	plan := PlanCycle(PriorityPreemptive{}, pending, view)
	if len(plan) != 1 || len(plan[0].Evictions) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	ev := plan[0].Evictions[0]
	if ev.Mode != EvictMigrate {
		t.Fatalf("eviction mode = %s, want migrate", ev.Mode)
	}
	if len(ev.Moves) != 2 {
		t.Fatalf("moves = %v", ev.Moves)
	}
	for from, to := range ev.Moves {
		if !big[from] || big[to] {
			t.Fatalf("move %s->%s crosses the wrong way", from, to)
		}
	}
	if !reflect.DeepEqual(plan[0].Hosts, []string{"big2", "big1"}) {
		t.Fatalf("hi placed on %v", plan[0].Hosts)
	}
}

func TestPlanRequeueFreesLeftoverNextCycle(t *testing.T) {
	// hi (gang 1) evicts one host of rigid vic (gang 2, no migration
	// room). The other host stays with vic for the rest of the cycle, so
	// hi2 waits; once vic is Pending the next cycle admits hi2 there
	// without evicting anything.
	hosts := fleet(2)
	occupy(hosts, "vic", "h1", "h2")
	view := ClusterView{
		Hosts:   hosts,
		Running: []JobView{{Name: "vic", Priority: 0, Gang: 2, Seq: 1, Hosts: []string{"h1", "h2"}}},
	}
	pending := []JobView{
		{Name: "hi", Priority: 2, Gang: 1, Seq: 2},
		{Name: "hi2", Priority: 2, Gang: 1, Seq: 3},
	}
	plan := PlanCycle(PriorityPreemptive{}, pending, view)
	if len(plan) != 1 || plan[0].Job != "hi" {
		t.Fatalf("cycle 1 plan = %+v, want hi alone", plan)
	}
	want := []Eviction{{Job: "vic", Mode: EvictRequeue, Hosts: []string{"h2"}}}
	if !reflect.DeepEqual(plan[0].Hosts, []string{"h2"}) || !reflect.DeepEqual(plan[0].Evictions, want) {
		t.Fatalf("cycle 1 admits hi on %v evicting %+v, want h2 requeuing vic", plan[0].Hosts, plan[0].Evictions)
	}

	hosts = fleet(2)
	occupy(hosts, "hi", "h2")
	view = ClusterView{
		Hosts:   hosts,
		Running: []JobView{{Name: "hi", Priority: 2, Gang: 1, Seq: 2, Hosts: []string{"h2"}}},
	}
	pending = []JobView{
		{Name: "vic", Priority: 0, Gang: 2, Seq: 1},
		{Name: "hi2", Priority: 2, Gang: 1, Seq: 3},
	}
	plan = PlanCycle(PriorityPreemptive{}, pending, view)
	if len(plan) != 1 || plan[0].Job != "hi2" || !reflect.DeepEqual(plan[0].Hosts, []string{"h1"}) || len(plan[0].Evictions) != 0 {
		t.Fatalf("cycle 2 plan = %+v, want hi2 on h1 without evictions", plan)
	}
}

func TestPlanPreemptionStopsAtFirstBlocked(t *testing.T) {
	// Nothing to evict (all running jobs are higher priority): the first
	// blocked job stops the cycle even though the next one would fit.
	hosts := fleet(3)
	occupy(hosts, "hi", "h1", "h2")
	view := ClusterView{
		Hosts:   hosts,
		Running: []JobView{{Name: "hi", Priority: 5, Gang: 2, Seq: 1, Hosts: []string{"h1", "h2"}}},
	}
	pending := []JobView{
		{Name: "mid", Priority: 3, Gang: 3, Seq: 2},
		{Name: "lo", Priority: 1, Gang: 1, Seq: 3},
	}
	if plan := PlanCycle(PriorityPreemptive{}, pending, view); len(plan) != 0 {
		t.Fatalf("cycle did not stop at blocked job: %+v", plan)
	}
}

func TestPlanDeterministic(t *testing.T) {
	hosts := fleet(6)
	occupy(hosts, "a", "h1", "h2")
	occupy(hosts, "b", "h3")
	view := ClusterView{
		Hosts: hosts,
		Running: []JobView{
			{Name: "a", Priority: 0, Gang: 2, Seq: 1, Hosts: []string{"h1", "h2"}},
			{Name: "b", Priority: 0, Gang: 1, Seq: 2, Hosts: []string{"h3"}},
		},
	}
	pending := []JobView{
		{Name: "c", Priority: 2, Gang: 4, Seq: 3},
		{Name: "d", Priority: 1, Gang: 2, Seq: 4},
	}
	first := PlanCycle(PriorityPreemptive{}, pending, view)
	for i := 0; i < 10; i++ {
		if got := PlanCycle(PriorityPreemptive{}, pending, view); !reflect.DeepEqual(got, first) {
			t.Fatalf("plan differs across runs:\n%+v\n%+v", got, first)
		}
	}
}

// cloneViews deep-copies job views, Hosts included.
func cloneViews(views []JobView) []JobView {
	out := append([]JobView(nil), views...)
	for i := range out {
		out[i].Hosts = append([]string(nil), out[i].Hosts...)
	}
	return out
}

// TestPlanCycleLeavesItsInputAlone: the planner works on an overlay, so the
// pending snapshot, the fleet and every running placement read the same
// after a cycle — under every policy, on the homogeneous and the
// heterogeneous fleet, whose cycles shrink, migrate and requeue victims.
func TestPlanCycleLeavesItsInputAlone(t *testing.T) {
	for _, hetero := range []bool{false, true} {
		for _, p := range Policies() {
			pending, view := benchView(64, hetero)
			wantPending := cloneViews(pending)
			wantHosts := append([]HostView(nil), view.Hosts...)
			wantRunning := cloneViews(view.Running)
			if plan := PlanCycle(p, pending, view); len(plan) == 0 {
				t.Fatalf("%s hetero=%t planned nothing", p.Name(), hetero)
			}
			if !reflect.DeepEqual(pending, wantPending) {
				t.Errorf("%s hetero=%t changed the pending snapshot", p.Name(), hetero)
			}
			if !reflect.DeepEqual(view.Hosts, wantHosts) {
				t.Errorf("%s hetero=%t changed view.Hosts", p.Name(), hetero)
			}
			if !reflect.DeepEqual(view.Running, wantRunning) {
				t.Errorf("%s hetero=%t changed a running placement", p.Name(), hetero)
			}
		}
	}
}
