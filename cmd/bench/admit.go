package main

import (
	"errors"
	"fmt"
	"time"

	"autoresched/internal/jobs"
	"autoresched/internal/persist"
	"autoresched/internal/registry"
	"autoresched/internal/vclock"
)

// admit_backlog: one op is one dispatcher cycle at a standing backlog. It
// makes the calls core.runCycle and core.execAdmission make, in their order,
// on a real jobs.Queue and a durable registry — with the two things a
// benchmark of the control plane has to cut out replaced by immediate queue
// transitions: ranks are not launched, and an evicted victim does not
// checkpoint. Each cycle first settles the two oldest running gangs and
// submits two seeded specs, so the backlog, the fleet and the running set
// stay the same size while their content churns.
//
// Two departures from the dispatcher, both to keep every cycle doing the same
// work: settled jobs are forgotten (core forgets only on name reuse, so its
// queue grows with history), and admissions execute one after another with
// the occupancy map updated as each commits (core spawns a goroutine per
// admission and relies on reservation marks overlapping).

const (
	admitHosts = 256
	// admitJobs is how many jobs the system holds at any time: about 100
	// gangs fill the 256 hosts, which leaves a backlog of about 256.
	admitJobs = 356
)

type admitFixture struct {
	e     env
	fs    *persist.FileStore
	ts    *tracedStore
	reg   *registry.Registry
	queue *jobs.Queue
	gen   *specGen

	// runs is the benchmark's stand-in for core's jobRuns: the hosts each
	// running job occupies; order lists them oldest admission first; occ is
	// the inverse map.
	runs  map[string][]string
	order []string
	occ   map[string]string

	// opID, root and inner are the op in flight, its root span and its
	// innermost open span (what a store call made now belongs under).
	opID, root, inner int32

	admissions, commits int
	// tracedAdmissions and tracedEvictions count over traced ops only.
	tracedAdmissions, tracedEvictions int
}

func buildAdmit(e env) (fixture, error) {
	fs, err := persist.OpenFileStore(e.dir, persist.FileConfig{})
	if err != nil {
		return nil, err
	}
	fx := &admitFixture{
		e: e, fs: fs, gen: newSpecGen(e.seed),
		queue: jobs.NewQueue(vclock.Real(), nil),
		runs:  map[string][]string{}, occ: map[string]string{},
	}
	var store persist.Store = fs
	if e.tr != nil {
		fx.ts = newTracedStore(fs, e.tr, func([]byte) (int32, int32) { return fx.opID, fx.inner })
		store = fx.ts
	}
	// No monitor refreshes these hosts, so the lease must outlast the run.
	fx.reg = registry.NewRegistry(registry.WithLease(24*time.Hour),
		registry.WithStore(store), registry.WithSnapshotEvery(hbSnapshotEvery))
	for i := 0; i < admitHosts; i++ {
		if err := fx.reg.RegisterHost(hostName(i), newSynthSource(e.seed, i).staticInfo()); err != nil {
			return nil, errors.Join(err, fs.Close())
		}
	}
	for i := 0; i < admitJobs; i++ {
		if _, err := fx.queue.Submit(fx.gen.next()); err != nil {
			return nil, errors.Join(err, fs.Close())
		}
	}
	return fx, nil
}

func (fx *admitFixture) drivers() int { return 1 }

// begin opens a span around calls into one layer, under the op's root span;
// end closes it.
func (fx *admitFixture) begin(name string) int32 {
	fx.inner = fx.e.tr.begin(name, fx.opID, fx.root)
	return fx.inner
}

func (fx *admitFixture) end(id int32) {
	fx.e.tr.end(id)
	fx.inner = fx.root
}

func (fx *admitFixture) op(_, i int) error {
	tr := fx.e.tr
	fx.opID = int32(i)
	fx.root = tr.begin("bench.cycle", fx.opID, -1)
	fx.inner = fx.root
	defer tr.end(fx.root)

	// Capacity frees up and work arrives.
	id := fx.begin("jobs.queue")
	for n := 0; n < 2 && len(fx.order) > 0; n++ {
		name := fx.order[0]
		fx.order = fx.order[1:]
		fx.release(name)
		fx.queue.Settle(name, jobs.StateCompleted, nil, "")
		if err := fx.queue.Forget(name); err != nil {
			return err
		}
		if _, err := fx.queue.Submit(fx.gen.next()); err != nil {
			return err
		}
	}
	pending := fx.queue.Pending()
	for name, hosts := range fx.runs {
		fx.queue.SetPlacement(name, hosts)
	}
	fx.end(id)

	id = fx.begin("registry.eligible")
	fleet := fx.reg.EligibleHosts(registry.ProcInfo{}, nil)
	fx.end(id)
	hostViews := make([]jobs.HostView, 0, len(fleet))
	for _, h := range fleet {
		hostViews = append(hostViews, jobs.HostView{Name: h.Name, Job: fx.occ[h.Name]})
	}

	id = fx.begin("jobs.queue")
	running := fx.queue.Running()
	// runCycle looks every pending and running job up for its schema; the
	// specs here carry none, so every host stays eligible for every job.
	for _, views := range [][]jobs.JobView{pending, running} {
		for _, v := range views {
			if job, ok := fx.queue.Get(v.Name); !ok || job.Spec().Schema != nil {
				return fmt.Errorf("job %s: missing or carries a schema", v.Name)
			}
		}
	}
	fx.end(id)

	id = fx.begin("jobs.plan")
	plan := jobs.PlanCycle(jobs.PriorityPreemptive{}, pending, jobs.ClusterView{Hosts: hostViews, Running: running})
	fx.end(id)

	for _, adm := range plan {
		if err := fx.admit(adm); err != nil {
			return err
		}
	}
	return nil
}

// admit is execAdmission: reserve, evict, commit, launch.
func (fx *admitFixture) admit(adm jobs.Admission) error {
	fx.admissions++
	if fx.e.tr.enabled() {
		fx.tracedAdmissions++
		fx.tracedEvictions += len(adm.Evictions)
	}
	id := fx.begin("jobs.queue")
	err := fx.queue.Transition(adm.Job, jobs.StateReserving, "admitted")
	job, ok := fx.queue.Get(adm.Job)
	fx.end(id)
	if err != nil || !ok {
		return fmt.Errorf("admit %s: %v", adm.Job, err)
	}
	spec := job.Spec()

	var g *registry.GangReservation
	hosts := adm.Hosts
	id = fx.begin("registry.place")
	if len(adm.Evictions) == 0 {
		res, ok := fx.reg.PlaceGang(registry.ProcInfo{Name: spec.Name}, spec.Gang,
			func(h string) bool { return fx.occ[h] != "" })
		fx.end(id)
		if !ok {
			return fmt.Errorf("admit %s: gang placement declined", adm.Job)
		}
		g, hosts = res, res.Hosts()
	} else {
		res, err := fx.reg.ReserveHosts(hosts)
		fx.end(id)
		if err != nil {
			return fmt.Errorf("admit %s: %w", adm.Job, err)
		}
		g = res
		id = fx.begin("jobs.queue")
		for _, ev := range adm.Evictions {
			if err := fx.evict(ev); err != nil {
				fx.end(id)
				return err
			}
		}
		fx.end(id)
	}

	// claimRun, then the commit that is the admission's point of no return.
	for _, h := range hosts {
		if owner := fx.occ[h]; owner != "" {
			return fmt.Errorf("admit %s: host %s still belongs to %s", adm.Job, h, owner)
		}
		fx.occ[h] = adm.Job
	}
	fx.runs[adm.Job] = hosts
	fx.order = append(fx.order, adm.Job)
	id = fx.begin("registry.commit")
	err = g.Commit()
	fx.end(id)
	if err != nil {
		return fmt.Errorf("admit %s: %w", adm.Job, err)
	}
	fx.commits++

	id = fx.begin("jobs.queue")
	fx.queue.SetPlacement(adm.Job, hosts)
	err = fx.queue.Transition(adm.Job, jobs.StateRunning, "")
	fx.end(id)
	return err
}

// evict is evictVictim with the checkpoint taken as done: a requeued victim
// goes straight back to Pending, a shrunk or migrated one keeps running on
// what the planner left it.
func (fx *admitFixture) evict(ev jobs.Eviction) error {
	switch ev.Mode {
	case jobs.EvictRequeue:
		if err := fx.queue.Transition(ev.Job, jobs.StatePreempting, "preempted: requeue"); err != nil {
			return err
		}
		fx.release(ev.Job)
		for i, name := range fx.order {
			if name == ev.Job {
				fx.order = append(fx.order[:i], fx.order[i+1:]...)
				break
			}
		}
		return fx.queue.Transition(ev.Job, jobs.StatePending, "requeued")
	case jobs.EvictShrink:
		gone := make(map[string]bool, len(ev.Hosts))
		for _, h := range ev.Hosts {
			gone[h] = true
			delete(fx.occ, h)
		}
		var left []string
		for _, h := range fx.runs[ev.Job] {
			if !gone[h] {
				left = append(left, h)
			}
		}
		fx.runs[ev.Job] = left
		fx.queue.SetPlacement(ev.Job, left)
	case jobs.EvictMigrate:
		moved := append([]string(nil), fx.runs[ev.Job]...)
		for i, h := range moved {
			if dest, ok := ev.Moves[h]; ok {
				moved[i] = dest
				delete(fx.occ, h)
				fx.occ[dest] = ev.Job
			}
		}
		fx.runs[ev.Job] = moved
		fx.queue.SetPlacement(ev.Job, moved)
	}
	return nil
}

// release drops a job's hosts from the occupancy.
func (fx *admitFixture) release(name string) {
	for _, h := range fx.runs[name] {
		delete(fx.occ, h)
	}
	delete(fx.runs, name)
}

// verify checks that no reservation is left behind, that every admission
// committed exactly once, that no host is assigned twice and that the queue
// and the occupancy agree on who runs where.
func (fx *admitFixture) verify() error {
	if left := fx.reg.Reserved(); len(left) > 0 {
		return fmt.Errorf("%d hosts still reserved: %v", len(left), left)
	}
	if fx.commits != fx.admissions {
		return fmt.Errorf("%d admissions, %d commits", fx.admissions, fx.commits)
	}
	seen := map[string]string{}
	for name, hosts := range fx.runs {
		for _, h := range hosts {
			if other, dup := seen[h]; dup {
				return fmt.Errorf("host %s assigned to %s and %s", h, other, name)
			}
			seen[h] = name
		}
	}
	running := fx.queue.Running()
	if len(running) != len(fx.runs) {
		return fmt.Errorf("queue runs %d jobs, occupancy holds %d", len(running), len(fx.runs))
	}
	for _, v := range running {
		if fmt.Sprint(v.Hosts) != fmt.Sprint(fx.runs[v.Name]) {
			return fmt.Errorf("job %s: queue places it on %v, occupancy on %v", v.Name, v.Hosts, fx.runs[v.Name])
		}
	}
	if total := len(fx.queue.List()); total != admitJobs {
		return fmt.Errorf("queue holds %d jobs, want %d", total, admitJobs)
	}
	return nil
}

func (fx *admitFixture) layers(m map[string]float64, t spanTotals, ops int) error {
	m["jobs.queue_us"] = float64(t.dur["jobs.queue"]) / float64(ops) / 1e3
	m["jobs.plan_us"] = t.meanUS("jobs.plan")
	m["registry.eligible_us"] = t.meanUS("registry.eligible")
	m["registry.place_us"] = t.meanUS("registry.place")
	m["registry.commit_us"] = t.meanUS("registry.commit")
	m["jobs.admissions_per_cycle"] = float64(fx.tracedAdmissions) / float64(ops)
	m["jobs.evictions_per_cycle"] = float64(fx.tracedEvictions) / float64(ops)
	if fx.ts != nil {
		fx.ts.layers(m, t, ops)
		m["registry.snapshot_stall_ms"] = fx.ts.stallMS(t, "bench.cycle")
	}
	return nil
}

func (fx *admitFixture) close() error { return fx.fs.Close() }
