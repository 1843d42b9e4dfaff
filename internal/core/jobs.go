package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// This file is the live job dispatcher: the control-plane half of the
// multi-job redesign. Submit enqueues a jobs.Spec; a single dispatcher
// goroutine runs admission cycles on the sim clock, feeding a registry
// snapshot to the pure planner (jobs.PlanCycle) and executing its
// admissions — gangs reserved two-phase through the registry, preemption
// victims evicted by checkpoint-and-requeue, elastic shrink, or live
// migration off the contested hosts — and launches each rank as an
// ordinary migration-enabled App, so the paper's per-process autonomic
// rescheduling keeps working underneath the job layer.

const (
	// evictionPoll paces the executor's vacancy checks, in virtual time.
	evictionPoll = 100 * time.Millisecond
	// evictionTimeout bounds how long an admission waits for its contested
	// hosts to empty before giving the reservation back.
	evictionTimeout = 30 * time.Minute
)

// Eviction intents a jobRun can be put under.
const (
	intentRequeue = "requeue"
	intentCancel  = "cancel"
)

// jobRun is the runtime bookkeeping of one admitted job: the per-rank Apps
// and the eviction intent driving its settle decision.
type jobRun struct {
	name string
	spec jobs.Spec

	mu       sync.Mutex
	claimed  []string // admission placement, authoritative until launched
	launched bool
	slots    map[int]*rankSlot
	intent   string // "", intentRequeue, intentCancel
	failErr  error
}

// rankSlot is one rank's entry.
type rankSlot struct {
	app    *App
	done   bool
	shrunk bool // marked for shrink retirement; drops from the world on settle
}

// liveHosts returns the hosts the job's running ranks occupy, in rank
// order. With held set, a job being requeued whole holds the hosts of its
// finished ranks too, until it is Pending again: a host it frees must not
// go to a job queued behind it while it cannot yet compete for it.
func (run *jobRun) liveHosts(held bool) []string {
	run.mu.Lock()
	defer run.mu.Unlock()
	if !run.launched {
		return append([]string(nil), run.claimed...)
	}
	idx := make([]int, 0, len(run.slots))
	for i, sl := range run.slots {
		if !sl.done || held && run.intent == intentRequeue {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	hosts := make([]string, 0, len(idx))
	for _, i := range idx {
		hosts = append(hosts, run.slots[i].app.Host())
	}
	return hosts
}

// Submit is the multi-job front door. A spec with pinned Hosts is admitted
// synchronously on exactly those hosts — the compatibility path Launch
// rides on; an unpinned spec joins the queue and the dispatcher admits it
// when the policy and the fleet allow, preempting lower-priority running
// jobs under a preemptive policy.
func (s *System) Submit(spec jobs.Spec) (*jobs.Job, error) {
	job, _, err := s.submit(spec)
	return job, err
}

func (s *System) submit(spec jobs.Spec) (*jobs.Job, []*App, error) {
	if spec.Rank == nil {
		return nil, nil, errors.New("core: Spec.Rank is required")
	}
	job, err := s.queue.Submit(spec)
	if err != nil {
		// Name reuse after a terminal run (Launch relaunches names): drop
		// the finished predecessor and retry once.
		if s.queue.Forget(spec.Name) == nil {
			job, err = s.queue.Submit(spec)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	spec = job.Spec()
	if len(spec.Hosts) > 0 {
		run := s.claimRun(spec, spec.Hosts)
		apps, err := s.launchRun(job, run)
		if err != nil {
			s.queue.Settle(spec.Name, jobs.StateFailed, err, "launch failed")
			s.dropRun(run)
			_ = s.queue.Forget(spec.Name)
			return nil, nil, err
		}
		return job, apps, nil
	}
	s.ensureDispatcher()
	s.kickDispatcher()
	return job, nil, nil
}

// CancelJob cancels a job: a pending one terminates immediately, a running
// one has its ranks evicted (checkpointing at their next poll-point) and
// settles Cancelled once they stop. A job mid-admission or mid-preemption
// cannot be cancelled yet — retry after it lands.
func (s *System) CancelJob(name string) error {
	prior, err := s.queue.Cancel(name)
	if err != nil {
		return err
	}
	switch prior {
	case jobs.StateReserving, jobs.StatePreempting:
		return fmt.Errorf("core: job %q is mid-%s; cancel again once it settles", name, prior)
	case jobs.StateRunning:
		run := s.jobRun(name)
		if run == nil {
			return fmt.Errorf("core: job %q has no runtime state", name)
		}
		run.mu.Lock()
		run.intent = intentCancel
		for _, sl := range run.slots {
			if !sl.done {
				sl.app.Process().Evict()
			}
		}
		run.mu.Unlock()
	default:
		// A pending or already-terminal job has no runtime to tear down;
		// the queue's Cancel settled everything.
	}
	return nil
}

// RankApp returns the App of one rank of a running job (rank 0 of the
// single-job compatibility path is the App Launch returns).
func (s *System) RankApp(job string, rank int) (*App, error) {
	run := s.jobRun(job)
	if run == nil {
		return nil, fmt.Errorf("core: job %q is not running", job)
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	sl, ok := run.slots[rank]
	if !ok {
		return nil, fmt.Errorf("core: job %q has no rank %d", job, rank)
	}
	return sl.app, nil
}

func (s *System) jobRun(name string) *jobRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobRuns[name]
}

// claimRun registers a jobRun covering hosts so concurrent admission cycles
// see them occupied — inserted before the gang reservation commits, so at
// every instant the hosts are protected either by the reservation marks or
// by this occupancy claim.
func (s *System) claimRun(spec jobs.Spec, hosts []string) *jobRun {
	run := &jobRun{
		name:    spec.Name,
		spec:    spec,
		claimed: append([]string(nil), hosts...),
		slots:   make(map[int]*rankSlot, len(hosts)),
	}
	s.mu.Lock()
	s.jobRuns[spec.Name] = run
	s.mu.Unlock()
	return run
}

func (s *System) dropRun(run *jobRun) {
	s.mu.Lock()
	// Pointer-checked: a requeued job may already have a fresh run under
	// the same name by the time a stale rank's settle drops the old one.
	if s.jobRuns[run.name] == run {
		delete(s.jobRuns, run.name)
	}
	s.mu.Unlock()
}

// ensureDispatcher starts the dispatcher goroutine on first queued Submit.
func (s *System) ensureDispatcher() {
	s.dispatchOnce.Do(func() {
		s.dispatcherOn.Store(true)
		vclock.Go(s.clock, s.dispatchLoop)
	})
}

// kickDispatcher requests an immediate admission cycle (coalescing).
func (s *System) kickDispatcher() {
	s.kickMu.Lock()
	defer s.kickMu.Unlock()
	select {
	case <-s.kicked:
	default:
		close(s.kicked)
	}
}

// dispatchLoop runs admission cycles: on every kick (submission, capacity
// freed) and every SchedInterval of virtual time as a sweep.
func (s *System) dispatchLoop() {
	defer close(s.dispatchDone)
	for {
		s.kickMu.Lock()
		kicked := s.kicked
		s.kickMu.Unlock()
		vclock.Wait(s.clock, s.opts.SchedInterval, s.dispatchStop, kicked)
		if closed(s.dispatchStop) {
			return
		}
		if closed(kicked) {
			s.kickMu.Lock()
			s.kicked = make(chan struct{})
			s.kickMu.Unlock()
		}
		s.runCycle()
	}
}

// runCycle snapshots the fleet and the queue, plans one admission cycle,
// moves each admitted job to Reserving and reserves its hosts, and spawns
// its executor. The plan is deterministic in the snapshot; executors run
// concurrently but on disjoint host sets (the planner's consistency
// guarantee plus the registry's reservation marks).
//
// The fleet is read first. An admission claims its hosts as a run before
// its Commit lets the reservation marks go, so a cycle that sees the hosts
// unreserved sees the claim too; and a failed admission is Pending again
// before it gives its hosts back, so a cycle that sees them free sees the
// job pending.
func (s *System) runCycle() {
	if !s.queue.HasPending() {
		return
	}
	// The schedulable fleet: alive and unreserved (in-flight admissions
	// hold their targets as reservations, which drop out here).
	fleet := s.reg.EligibleHosts(registry.ProcInfo{}, nil)
	occ := make(map[string]string, len(fleet))
	for _, h := range fleet {
		occ[h.Name] = ""
	}
	s.mu.Lock()
	runs := maps.Clone(s.jobRuns)
	s.mu.Unlock()

	// Refresh placements (ranks migrate and fail over underneath the job
	// layer) with the live hosts this fleet holds, so the running views
	// agree with the host views: a reserved or expired host is not the
	// job's to give.
	for name, run := range runs {
		hosts := slices.DeleteFunc(run.liveHosts(true), func(h string) bool {
			_, ok := occ[h]
			return !ok
		})
		s.queue.SetPlacement(name, hosts)
		for _, h := range hosts {
			occ[h] = name
		}
	}
	hostViews := make([]jobs.HostView, 0, len(fleet))
	for _, h := range fleet {
		hostViews = append(hostViews, jobs.HostView{Name: h.Name, Job: occ[h.Name]})
	}
	pending := s.queue.Pending()
	running := s.queue.Running()

	// Per-job host eligibility: which of this cycle's fleet fit the job's
	// schema.
	elig := make(map[string]map[string]bool)
	for _, views := range [][]jobs.JobView{pending, running} {
		for _, v := range views {
			if job, ok := s.queue.Get(v.Name); ok && job.Spec().Schema != nil {
				set := make(map[string]bool, len(fleet))
				for i := range fleet {
					set[fleet[i].Name] = fleet[i].Fits(job.Spec().Schema)
				}
				elig[v.Name] = set
			}
		}
	}

	view := jobs.ClusterView{
		Hosts:   hostViews,
		Running: running,
		Eligible: func(job, host string) bool {
			set, ok := elig[job]
			if !ok {
				return true
			}
			return set[host]
		},
	}
	for _, adm := range jobs.PlanCycle(s.policy, pending, view) {
		// Reserving, and its hosts reserved, before the executor starts, so
		// that a cycle running ahead of it can plan neither the job again
		// nor another job onto those hosts.
		if s.queue.Transition(adm.Job, jobs.StateReserving, "admitted") != nil {
			continue
		}
		if g := s.reserve(adm); g != nil {
			vclock.Go(s.clock, func() { s.execAdmission(adm, g) })
		}
	}
}

// reserve takes the gang reservation of an admission that has just turned
// Reserving: exactly the hosts the planner planned, each free in the
// cycle's view or vacated by the admission's own evictions, and its
// migration destinations, which no later cycle then sees until Commit or
// Abort (nor does the planner vacate one within its cycle). On failure the
// job is Pending again and reserve returns nil.
func (s *System) reserve(adm jobs.Admission) *registry.GangReservation {
	hosts := slices.Clip(adm.Hosts)
	for _, ev := range adm.Evictions {
		for _, h := range ev.Hosts {
			if dest, ok := ev.Moves[h]; ok {
				hosts = append(hosts, dest)
			}
		}
	}
	g, err := s.reg.ReserveHosts(hosts)
	if err != nil {
		_ = s.queue.Transition(adm.Job, jobs.StatePending, "reservation failed: "+err.Error())
		s.kickDispatcher()
		return nil
	}
	return g
}

// execAdmission carries one reserved admission out: evict, commit, launch.
// Any failure puts the job back to Pending before it gives its hosts back,
// so no cycle sees the hosts free while the job is neither Pending nor
// holding them; the next cycle replans from the fleet as it then stands.
func (s *System) execAdmission(adm jobs.Admission, g *registry.GangReservation) {
	defer s.kickDispatcher()
	requeue := func(note string) {
		_ = s.queue.Transition(adm.Job, jobs.StatePending, note)
	}
	job, ok := s.queue.Get(adm.Job)
	if !ok {
		g.Abort()
		return
	}
	spec := job.Spec()
	if len(adm.Evictions) > 0 {
		for _, ev := range adm.Evictions {
			s.evictVictim(ev)
		}
		if !s.awaitVacated(adm) {
			requeue("eviction timed out")
			g.Abort()
			return
		}
	}
	// A failed Commit has released the reservation marks already; the
	// occupancy claim holds the hosts until the job is Pending again, and
	// Commit hands the migration destinations to the migrated ranks.
	run := s.claimRun(spec, adm.Hosts)
	if err := g.Commit(); err != nil {
		s.opts.Metrics.Counter(CtrJobsReservations).Inc()
		requeue("reservation lost: " + err.Error())
		s.dropRun(run)
		return
	}
	if _, err := s.launchRun(job, run); err != nil {
		requeue("launch failed: " + err.Error())
		s.dropRun(run)
		return
	}
	s.opts.Metrics.Counter(CtrJobsAdmitted).Inc()
}

// evictVictim fires one eviction. Completion is observed by awaitVacated
// (hosts emptying) and the victim's own rank watchers (state transitions).
func (s *System) evictVictim(ev jobs.Eviction) {
	run := s.jobRun(ev.Job)
	if run == nil {
		return
	}
	switch ev.Mode {
	case jobs.EvictRequeue:
		_ = s.queue.Transition(ev.Job, jobs.StatePreempting, "preempted: requeue")
		run.mu.Lock()
		run.intent = intentRequeue
		for _, sl := range run.slots {
			if !sl.done {
				sl.app.Process().Evict()
			}
		}
		run.mu.Unlock()
	case jobs.EvictShrink:
		run.mu.Lock()
		for _, sl := range run.slots {
			if !sl.done && !sl.shrunk && slices.Contains(ev.Hosts, sl.app.Host()) {
				sl.shrunk = true
				sl.app.Process().Evict()
			}
		}
		run.mu.Unlock()
		s.opts.Metrics.Counter(CtrJobsShrunk).Inc()
	case jobs.EvictMigrate:
		type move struct {
			from, to string
			pid      int
		}
		var moves []move
		run.mu.Lock()
		for _, sl := range run.slots {
			if sl.done {
				continue
			}
			if to, ok := ev.Moves[sl.app.Host()]; ok {
				moves = append(moves, move{from: sl.app.Host(), to: to, pid: sl.app.Process().PID()})
			}
		}
		run.mu.Unlock()
		for _, m := range moves {
			_ = s.Migrate(m.from, proto.MigrateOrder{
				PID:      m.pid,
				DestHost: m.to,
				DestAddr: "cmd://" + m.to,
			})
		}
		s.opts.Metrics.Counter(CtrJobsMigrated).Inc()
	}
}

// awaitVacated polls in virtual time until no other job's live rank sits on
// any of the admission's target hosts.
func (s *System) awaitVacated(adm jobs.Admission) bool {
	deadline := s.clock.Now().Add(evictionTimeout)
	for {
		if s.hostsClear(adm.Job, adm.Hosts) {
			return true
		}
		if s.clock.Now().After(deadline) {
			return false
		}
		if vclock.Wait(s.clock, evictionPoll, s.dispatchStop) {
			return false
		}
	}
}

// closed reports whether ch, which is only ever closed, is.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// hostsClear reports whether no live rank of another job occupies any
// target host.
func (s *System) hostsClear(admitted string, target []string) bool {
	s.mu.Lock()
	runs := maps.Clone(s.jobRuns)
	s.mu.Unlock()
	for _, run := range runs {
		if run.name == admitted {
			continue
		}
		for _, h := range run.liveHosts(false) {
			if slices.Contains(target, h) {
				return false
			}
		}
	}
	return true
}

// launchRun starts every rank of a claimed job on its placement and moves
// it to Running. Requeued jobs restore ranks from their checkpoints when
// the store has one; fresh admissions (and ranks without an image)
// cold-start. The rank apps are returned in rank order.
//
// No rank's follow loop starts before the job is Running: a rank whose main
// returns at once settles the job through rankSettled, and a settle that
// overtook the Running transition would leave the launch to fail on a job
// that had already finished.
func (s *System) launchRun(job *jobs.Job, run *jobRun) ([]*App, error) {
	spec := run.spec
	restore := job.Requeues() > 0
	apps := make([]*App, 0, len(run.claimed))
	// All-or-nothing: put the partial gang down (Evict, not Kill — no
	// failover burn on a launch we are unwinding ourselves). The ranks'
	// follow loops still run, without a settle hook, so each one
	// deregisters and settles its App; the job is the caller's to settle,
	// and the run's claim the caller's to drop once it has.
	unwind := func(err error) ([]*App, error) {
		for _, a := range apps {
			a.Process().Evict()
			vclock.Go(s.clock, a.follow)
		}
		return nil, err
	}
	for i, host := range run.claimed {
		name := jobs.RankName(spec.Name, i, spec.Gang)
		app, err := s.startApp(name, host, spec.Schema, spec.Rank(i, spec.Gang), restore)
		if err != nil {
			return unwind(err)
		}
		apps = append(apps, app)
		run.slots[i] = &rankSlot{app: app}
	}
	run.mu.Lock()
	run.launched = true
	run.mu.Unlock()
	s.queue.SetPlacement(spec.Name, run.claimed)
	if err := s.queue.Transition(spec.Name, jobs.StateRunning, ""); err != nil {
		return unwind(err)
	}
	for i, app := range apps {
		idx := i
		app.onSettled = func(err error) { s.rankSettled(run, idx, err) }
		vclock.Go(s.clock, app.follow)
	}
	return apps, nil
}

// startApp launches (or restores) one migration-enabled process and wraps
// it in the App machinery — registry registration and the follow loop with
// its failover budget. Launch, admissions and requeues share it (failover
// shares startProc). A failed start leaves nothing running.
func (s *System) startApp(name, host string, sch *rules.Schema, main hpcm.Main, restore bool) (*App, error) {
	if _, ok := s.Node(host); !ok {
		return nil, fmt.Errorf("core: no node on host %q", host)
	}
	p, _, err := s.startProc(name, host, main, restore)
	if err != nil {
		return nil, err
	}
	app := &App{
		Proc:       p,
		Schema:     sch,
		sys:        s,
		main:       main,
		settled:    make(chan struct{}),
		pid:        p.PID(),
		host:       host,
		launchHost: host,
		launched:   s.clock.Now(),
	}
	if err := s.registerProc(app); err != nil {
		p.Kill()
		vclock.Await(s.clock, p.Done())
		return nil, err
	}
	s.mu.Lock()
	s.apps = append(s.apps, app)
	s.mu.Unlock()
	// The caller wires app.onSettled and starts app.follow() — the hook
	// must be in place before the follow loop can observe completion.
	return app, nil
}

// startProc starts one process on host: restored from its latest checkpoint
// when restore is set and the store holds a usable image (reported true),
// from the beginning otherwise — slow, but the computation still survives.
func (s *System) startProc(name, host string, main hpcm.Main, restore bool) (*hpcm.Process, bool, error) {
	if restore && s.opts.Checkpoints != nil {
		if p, err := s.mw.Restore(s.opts.Checkpoints, name, host, main); err == nil {
			s.opts.Metrics.Counter(CtrCkptRestores).Inc()
			return p, true, nil
		}
	}
	p, err := s.mw.Start(name, host, main)
	return p, false, err
}

// rankSettled folds one rank's settle into the job state machine. It runs
// in the rank's follow goroutine, before the App's settled channel closes,
// so job-level bookkeeping is complete by the time App.Wait returns.
func (s *System) rankSettled(run *jobRun, idx int, err error) {
	run.mu.Lock()
	sl := run.slots[idx]
	sl.done = true
	preempted := errors.Is(err, hpcm.ErrPreempted)
	if err != nil && !preempted && run.failErr == nil {
		// Terminal rank failure (failover budget spent): a gang missing a
		// rank is no gang — put the others down too.
		run.failErr = err
		for _, other := range run.slots {
			if !other.done {
				other.app.Process().Evict()
			}
		}
	}
	allDone := true
	for _, other := range run.slots {
		if !other.done {
			allDone = false
			break
		}
	}
	intent, failErr, shrunk := run.intent, run.failErr, sl.shrunk
	run.mu.Unlock()

	if !allDone {
		if preempted && shrunk && intent == "" {
			// Shrink retirement: the survivors keep running at the
			// smaller world.
			s.queue.SetPlacement(run.name, run.liveHosts(false))
		}
		return
	}

	// Last rank down: settle (or requeue) the job, and only then give its
	// hosts back.
	switch {
	case intent == intentCancel:
		s.queue.Settle(run.name, jobs.StateCancelled, jobs.ErrCancelled, "cancelled")
	case intent == intentRequeue:
		s.opts.Metrics.Counter(CtrJobsRequeued).Inc()
		_ = s.queue.Transition(run.name, jobs.StatePending, "requeued")
	case failErr != nil:
		s.queue.Settle(run.name, jobs.StateFailed, failErr, "rank failed")
	case preempted && !shrunk:
		// Evicted without a recorded intent (e.g. unwound mid-launch):
		// requeue rather than invent an outcome.
		s.opts.Metrics.Counter(CtrJobsRequeued).Inc()
		_ = s.queue.Transition(run.name, jobs.StatePending, "requeued")
	default:
		s.queue.Settle(run.name, jobs.StateCompleted, nil, "")
	}
	s.dropRun(run)
	if s.dispatcherOn.Load() {
		s.kickDispatcher()
	}
}
