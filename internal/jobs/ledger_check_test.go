package jobs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"autoresched/internal/proto"
	"autoresched/internal/registry"
)

// The small-scope checker: every event sequence up to ledgerDepth over
// four hosts and three jobs, under each policy, with the real PlanCycle at
// every Plan and a real registry holding the reservations. It drives the
// ledger the way both runners do — a plan reserves Admission.Reserves, a
// commit Occupies, a landed move Moves, a leaving rank Exits (a job being
// requeued whole keeps its unreserved hosts until it is Pending), a
// finished or requeued job Releases — and checks after every event:
//   - Occupy never refuses at Commit;
//   - a planned move never lands on a host another job holds;
//   - every plan is reservable as written: each admission host is free in
//     the view or vacated by one of that admission's own evictions, each
//     destination is free, no host is named twice, and ReserveHosts takes
//     each admission's Reserves;
//   - the registry's marks are the in-flight admissions' reservations, and
//     at quiescence none is left and every one was resolved exactly once.
// States are deduplicated, and the search is breadth first, so a
// violation is reported with its shortest event sequence.

// ledgerDepth is the checker's event depth.
const ledgerDepth = 9

// ckHosts is the fleet, in registration order; ckHosts[0] is the fast host.
var ckHosts = [...]string{"h1", "h2", "h3", "h4"}

// ckFixtures are the job sets: priorities 0/1/2, gangs of 1–2, one elastic
// job, and the top-priority job fits only the fast host, so that it evicts
// by migration. They differ in the middle job's gang: a gang of one takes
// a requeued victim's leftover host on its own, a gang of two has to
// preempt for the host a migration left behind.
var ckFixtures = map[string][3]JobView{
	"mid-gang1": {
		{Name: "a", Priority: 0, Gang: 2, MinWorld: 1, Seq: 1},
		{Name: "b", Priority: 1, Gang: 1, Elastic: true, MinWorld: 1, Seq: 2},
		{Name: "c", Priority: 2, Gang: 1, MinWorld: 1, Seq: 3},
	},
	"mid-gang2": {
		{Name: "a", Priority: 0, Gang: 2, MinWorld: 1, Seq: 1},
		{Name: "b", Priority: 1, Gang: 2, Elastic: true, MinWorld: 1, Seq: 2},
		{Name: "c", Priority: 2, Gang: 1, MinWorld: 1, Seq: 3},
	},
}

// ckEligible: c runs only on the fast host; every job fits it.
func ckEligible(job, host string) bool { return job != "c" || host == ckHosts[0] }

// ckRank is a rank ordered off a host; ckMove a planned move not yet
// landed, by the admission it makes room for.
type ckRank struct{ job, host string }

type ckMove struct{ job, from, to, admission string }

// ckState is one point of the search: the ledger, the in-flight
// admissions (whose reservations the registry holds) and the job states.
type ckState struct {
	phase    [3]State // "" until submitted
	requeue  [3]bool  // the job is being requeued whole
	ledger   Ledger
	flights  []Admission
	leaving  []ckRank
	moves    []ckMove
	down     [len(ckHosts)]bool
	reserved int // reservations taken
	resolved int // reservations committed, failed or aborted

	parent *ckState
	event  string
}

func (s *ckState) clone() *ckState {
	c := *s
	c.ledger.held = make([]holding, len(s.ledger.held))
	for i, h := range s.ledger.held {
		c.ledger.held[i] = holding{job: h.job, hosts: slices.Clone(h.hosts)}
	}
	c.flights = slices.Clone(s.flights)
	c.leaving = slices.Clone(s.leaving)
	c.moves = slices.Clone(s.moves)
	c.parent = s
	return &c
}

// key identifies the state for deduplication.
func (s *ckState) key() string {
	var b strings.Builder
	fmt.Fprint(&b, s.phase, s.requeue, s.down, s.reserved, s.resolved, "|")
	for _, h := range s.ledger.held {
		fmt.Fprint(&b, h.job, h.hosts)
	}
	b.WriteString("|")
	for _, a := range s.flights {
		fmt.Fprint(&b, a.Job, a.Reserves())
	}
	var rest []string
	for _, r := range s.leaving {
		rest = append(rest, "leave "+r.job+"@"+r.host)
	}
	for _, m := range s.moves {
		rest = append(rest, "move "+m.job+" "+m.from+"->"+m.to+" for "+m.admission)
	}
	sort.Strings(rest)
	b.WriteString(strings.Join(rest, ","))
	return b.String()
}

// trail is the event sequence from the initial state.
func (s *ckState) trail() string {
	var evs []string
	for ; s.parent != nil; s = s.parent {
		evs = append(evs, s.event)
	}
	slices.Reverse(evs)
	return strings.Join(evs, "; ")
}

// checker runs one fixture under one policy.
type checker struct {
	policy Policy
	jobs   [3]JobView
	// modes counts the planned evictions by mode.
	modes map[EvictMode]int
}

func (ck *checker) index(job string) int {
	return slices.IndexFunc(ck.jobs[:], func(v JobView) bool { return v.Name == job })
}

// registry materialises the state's reservations in a fresh registry: all
// hosts registered, each in-flight admission's Reserves held, then the
// down hosts withdrawn (which poisons a reservation holding one). The
// lease outlasts the check, since nothing heartbeats.
func (ck *checker) registry(s *ckState) (*registry.Registry, []*registry.GangReservation, error) {
	reg := registry.NewRegistry(registry.WithLease(24 * time.Hour))
	for _, h := range ckHosts {
		if err := reg.RegisterHost(h, proto.StaticInfo{Addr: "cmd://" + h, CPUSpeed: 1000, MemTotal: 128 << 20}); err != nil {
			return nil, nil, err
		}
	}
	gangs := make([]*registry.GangReservation, len(s.flights))
	for i, a := range s.flights {
		g, err := reg.ReserveHosts(a.Reserves())
		if err != nil {
			return nil, nil, err
		}
		gangs[i] = g
	}
	for i, h := range ckHosts {
		if s.down[i] {
			if err := reg.UnregisterHost(h); err != nil {
				return nil, nil, err
			}
		}
	}
	return reg, gangs, nil
}

// successors applies every enabled event to s. A violation is returned as
// an error ending in its event sequence.
func (ck *checker) successors(s *ckState) ([]*ckState, error) {
	var out []*ckState
	var failed error
	next := func(event string, apply func(c *ckState) error) {
		c := s.clone()
		c.event = event
		if err := apply(c); err != nil && failed == nil {
			failed = fmt.Errorf("%w, after: %s", err, c.trail())
		}
		out = append(out, c)
	}
	for i := range ck.jobs {
		if s.phase[i] == "" {
			next("submit "+ck.jobs[i].Name, func(c *ckState) error {
				c.phase[i] = StatePending
				return nil
			})
		}
	}
	if slices.Contains(s.phase[:], StatePending) {
		next("plan", ck.plan)
	}
	for _, r := range s.leaving {
		next("leave "+r.job+"@"+r.host, func(c *ckState) error { ck.leave(c, r); return nil })
	}
	for _, m := range s.moves {
		next("land "+m.job+" "+m.from+"->"+m.to, func(c *ckState) error { return ck.land(c, m) })
	}
	for _, a := range s.flights {
		if s.ledger.clash(a.Job, a.Hosts) == nil {
			next("commit "+a.Job, func(c *ckState) error { return ck.commit(c, a.Job) })
		}
		// A move whose destination loses its reservation mid-flight is
		// the eviction timeout's case, which this model leaves out: an
		// admission aborts once its moves have landed or failed.
		if !slices.ContainsFunc(s.moves, func(m ckMove) bool { return m.admission == a.Job }) {
			next("abort "+a.Job, func(c *ckState) error { return ck.abort(c, a.Job) })
		}
	}
	for i, h := range ckHosts {
		if !s.down[i] {
			next("down "+h, func(c *ckState) error { ck.hostDown(c, i); return nil })
		}
	}
	for i := range ck.jobs {
		if s.phase[i] == StateRunning {
			next("complete "+ck.jobs[i].Name, func(c *ckState) error {
				c.phase[i] = StateCompleted
				ck.drop(c, ck.jobs[i].Name)
				return nil
			})
		}
	}
	return out, failed
}

// plan runs one admission cycle: the real PlanCycle over the ledger's view
// of the registry's unreserved, alive hosts, then each admission's
// reservation and evictions.
func (ck *checker) plan(s *ckState) error {
	reg, _, err := ck.registry(s)
	if err != nil {
		return err
	}
	var fleet []string
	for _, h := range reg.EligibleHosts(registry.ProcInfo{}, nil) {
		fleet = append(fleet, h.Name)
	}
	var pending, running []JobView
	for i, v := range ck.jobs {
		switch s.phase[i] {
		case StatePending:
			pending = append(pending, v)
		case StateRunning:
			running = append(running, v)
		}
	}
	view := s.ledger.View(fleet, running, ckEligible)
	plan := PlanCycle(ck.policy, pending, view)
	if err := reservableAsWritten(plan, view); err != nil {
		return err
	}
	for _, a := range plan {
		if _, err := reg.ReserveHosts(a.Reserves()); err != nil {
			return fmt.Errorf("admit %s: the plan is not reservable as written: %w", a.Job, err)
		}
		s.reserved++
		s.phase[ck.index(a.Job)] = StateReserving
		s.flights = append(s.flights, a)
		for _, ev := range a.Evictions {
			ck.modes[ev.Mode]++
			v := ck.index(ev.Job)
			switch ev.Mode {
			case EvictRequeue:
				s.phase[v], s.requeue[v] = StatePreempting, true
				for _, h := range s.ledger.Placement(ev.Job) {
					if !slices.Contains(s.leaving, ckRank{ev.Job, h}) {
						s.leaving = append(s.leaving, ckRank{ev.Job, h})
					}
				}
			case EvictShrink:
				for _, h := range ev.Hosts {
					s.leaving = append(s.leaving, ckRank{ev.Job, h})
				}
			case EvictMigrate:
				for _, h := range ev.Hosts {
					s.moves = append(s.moves, ckMove{ev.Job, h, ev.Moves[h], a.Job})
				}
			}
		}
	}
	return ck.marksAgree(s, reg)
}

// reservableAsWritten checks a plan against the view it was made from.
func reservableAsWritten(plan []Admission, view ClusterView) error {
	holder := make(map[string]string, len(view.Hosts))
	for _, h := range view.Hosts {
		holder[h.Name] = h.Job
	}
	used := map[string]bool{}
	for _, a := range plan {
		for _, h := range a.Reserves() {
			if used[h] {
				return fmt.Errorf("admit %s: %s is planned twice", a.Job, h)
			}
			used[h] = true
		}
		for _, h := range a.Hosts {
			if owner := holder[h]; owner != "" && !slices.ContainsFunc(a.Evictions, func(ev Eviction) bool {
				return ev.Job == owner && slices.Contains(ev.Hosts, h)
			}) {
				return fmt.Errorf("admit %s: %s is %s's and none of the admission's evictions vacates it", a.Job, h, owner)
			}
		}
		for _, ev := range a.Evictions {
			for _, h := range ev.Hosts {
				if dest, ok := ev.Moves[h]; ok && holder[dest] != "" {
					return fmt.Errorf("admit %s: %s moves onto %s, which is %s's", a.Job, ev.Job, dest, holder[dest])
				}
			}
		}
	}
	return nil
}

// leave takes one ordered rank off its host. A job being requeued whole
// keeps a host no admission has reserved until it is Pending again; the
// last rank puts it back to Pending.
func (ck *checker) leave(s *ckState, r ckRank) {
	i := slices.Index(s.leaving, r)
	s.leaving = slices.Delete(s.leaving, i, i+1)
	s.moves = slices.DeleteFunc(s.moves, func(m ckMove) bool { return m.job == r.job && m.from == r.host })
	v := ck.index(r.job)
	if !s.requeue[v] || slices.ContainsFunc(s.flights, func(a Admission) bool { return slices.Contains(a.Reserves(), r.host) }) {
		s.ledger.Exit(r.job, r.host)
	}
	if s.requeue[v] && !slices.ContainsFunc(s.leaving, func(o ckRank) bool { return o.job == r.job }) {
		s.phase[v], s.requeue[v] = StatePending, false
		s.ledger.Release(r.job)
	}
}

// land records a planned move, which must not land on another job's host.
func (ck *checker) land(s *ckState, m ckMove) error {
	i := slices.Index(s.moves, m)
	s.moves = slices.Delete(s.moves, i, i+1)
	for _, h := range s.ledger.held {
		if h.job != m.job && slices.Contains(h.hosts, m.to) {
			return fmt.Errorf("%s's rank from %s lands on %s, which %s holds", m.job, m.from, m.to, h.job)
		}
	}
	s.ledger.Move(m.job, m.from, m.to)
	for k := range s.leaving {
		if s.leaving[k] == (ckRank{m.job, m.from}) {
			s.leaving[k].host = m.to
			break
		}
	}
	return nil
}

// commit resolves an admission whose hosts no other job holds: the
// registry's Commit, then Occupy, which must not refuse. A lost host fails the commit
// and the job is Pending again.
func (ck *checker) commit(s *ckState, job string) error {
	reg, gangs, err := ck.registry(s)
	if err != nil {
		return err
	}
	k := slices.IndexFunc(s.flights, func(a Admission) bool { return a.Job == job })
	a := s.flights[k]
	s.flights = slices.Delete(s.flights, k, k+1)
	s.resolved++
	switch err := gangs[k].Commit(); {
	case errors.Is(err, registry.ErrReservationLost):
		s.phase[ck.index(job)] = StatePending
	case err != nil:
		return err
	default:
		if err := s.ledger.Occupy(job, a.Hosts...); err != nil {
			return fmt.Errorf("commit %s: Occupy refused: %w", job, err)
		}
		s.phase[ck.index(job)] = StateRunning
	}
	return ck.marksAgree(s, reg)
}

// abort gives an admission's reservation back; the job is Pending again.
func (ck *checker) abort(s *ckState, job string) error {
	reg, gangs, err := ck.registry(s)
	if err != nil {
		return err
	}
	k := slices.IndexFunc(s.flights, func(a Admission) bool { return a.Job == job })
	gangs[k].Abort()
	s.flights = slices.Delete(s.flights, k, k+1)
	s.resolved++
	s.phase[ck.index(job)] = StatePending
	return ck.marksAgree(s, reg)
}

// hostDown loses a host for good. A move onto it fails (the rank stays
// where it was); a rank on it is lost: an elastic job above its minimum
// world shrinks, any other job is requeued, as the model runner's churn
// does. A reservation holding it fails at Commit.
func (ck *checker) hostDown(s *ckState, i int) {
	h := ckHosts[i]
	s.down[i] = true
	s.moves = slices.DeleteFunc(s.moves, func(m ckMove) bool { return m.to == h })
	for v, spec := range ck.jobs {
		placed := s.ledger.Placement(spec.Name)
		if !slices.Contains(placed, h) {
			continue
		}
		if spec.Elastic && !s.requeue[v] && len(placed)-1 >= spec.MinWorld {
			s.ledger.Exit(spec.Name, h)
			s.leaving = slices.DeleteFunc(s.leaving, func(r ckRank) bool { return r == ckRank{spec.Name, h} })
			s.moves = slices.DeleteFunc(s.moves, func(m ckMove) bool { return m.job == spec.Name && m.from == h })
			continue
		}
		s.phase[v], s.requeue[v] = StatePending, false
		ck.drop(s, spec.Name)
	}
}

// drop forgets a job that stopped running: its hosts, its ordered ranks
// and its planned moves.
func (ck *checker) drop(s *ckState, job string) {
	s.ledger.Release(job)
	s.leaving = slices.DeleteFunc(s.leaving, func(r ckRank) bool { return r.job == job })
	s.moves = slices.DeleteFunc(s.moves, func(m ckMove) bool { return m.job == job })
}

// marksAgree checks that the registry holds exactly the in-flight
// admissions' reservations on the hosts still up.
func (ck *checker) marksAgree(s *ckState, reg *registry.Registry) error {
	var want []string
	for _, a := range s.flights {
		for _, h := range a.Reserves() {
			if !s.down[slices.Index(ckHosts[:], h)] {
				want = append(want, h)
			}
		}
	}
	sort.Strings(want)
	if got := reg.Reserved(); !slices.Equal(got, want) {
		return fmt.Errorf("the registry holds %v, the in-flight admissions %v", got, want)
	}
	return nil
}

// quiescent checks a state with nothing in flight.
func (s *ckState) quiescent() error {
	if len(s.flights) > 0 || len(s.leaving) > 0 || len(s.moves) > 0 {
		return nil
	}
	if s.reserved != s.resolved {
		return fmt.Errorf("%d reservations taken, %d resolved", s.reserved, s.resolved)
	}
	return nil
}

// explore searches breadth first to depth and returns the first violation
// with its shortest event sequence, and the number of states visited.
func (ck *checker) explore(depth int) (string, int) {
	seen := map[string]bool{}
	level := []*ckState{{}}
	visited := 0
	for d := 0; d <= depth && len(level) > 0; d++ {
		var nextLevel []*ckState
		for _, s := range level {
			k := s.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			visited++
			if err := s.quiescent(); err != nil {
				return fmt.Sprintf("%v, after: %s", err, s.trail()), visited
			}
			if d == depth {
				continue
			}
			succ, err := ck.successors(s)
			if err != nil {
				return err.Error(), visited
			}
			nextLevel = append(nextLevel, succ...)
		}
		level = nextLevel
	}
	return "", visited
}

// TestLedgerSmallScope runs the checker over every fixture and policy, and
// fails if the search planned no eviction of some mode.
func TestLedgerSmallScope(t *testing.T) {
	names := make([]string, 0, len(ckFixtures))
	for name := range ckFixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	modes := map[EvictMode]int{}
	for _, name := range names {
		for _, p := range Policies() {
			ck := &checker{policy: p, jobs: ckFixtures[name], modes: modes}
			violation, visited := ck.explore(ledgerDepth)
			if violation != "" {
				t.Errorf("%s %s: %s", name, p.Name(), violation)
			}
			t.Logf("%s %s: %d states to depth %d", name, p.Name(), visited, ledgerDepth)
		}
	}
	for _, m := range []EvictMode{EvictRequeue, EvictShrink, EvictMigrate} {
		if modes[m] == 0 {
			t.Errorf("no %s eviction planned to depth %d; the checker does not cover it", m, ledgerDepth)
		}
	}
}
