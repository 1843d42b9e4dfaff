package core

import (
	"errors"
	"fmt"
	"slices"
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

	mu      sync.Mutex
	slots   map[int]*rankSlot
	intent  string // "", intentRequeue, intentCancel
	failErr error
}

// rankSlot is one rank's entry.
type rankSlot struct {
	app    *App
	done   bool
	shrunk bool // marked for shrink retirement; drops from the world on settle
}

// evictLocked puts every running rank of the run down; run.mu is held.
func (run *jobRun) evictLocked() {
	for _, sl := range run.slots {
		if !sl.done {
			sl.app.Process().Evict()
		}
	}
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
		run := s.claimRun(spec, spec.Hosts, false)
		apps, err := s.launchRun(job, run, spec.Hosts)
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
		run.evictLocked()
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

// claimRun registers a jobRun with hosts as its placement in the ledger,
// replacing what a stale run of the name held, before the gang reservation
// commits: at every instant the hosts are protected by the marks or the
// ledger. An admission claims through Occupy (occupy set), and claimRun
// returns nil while another job holds one of hosts; a pinned submit's
// hosts are recorded as given.
func (s *System) claimRun(spec jobs.Spec, hosts []string, occupy bool) *jobRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ledger.Release(spec.Name)
	if !occupy {
		s.ledger.Pin(spec.Name, hosts...)
	} else if s.ledger.Occupy(spec.Name, hosts...) != nil {
		return nil
	}
	run := &jobRun{name: spec.Name, spec: spec, slots: make(map[int]*rankSlot, len(hosts))}
	s.jobRuns[spec.Name] = run
	return run
}

func (s *System) dropRun(run *jobRun) {
	s.mu.Lock()
	// Pointer-checked: a requeued job may already have a fresh run under
	// the same name by the time a stale rank's settle drops the old one.
	if s.jobRuns[run.name] == run {
		delete(s.jobRuns, run.name)
		s.ledger.Release(run.name)
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
// The fleet is read first, then the running jobs, the ledger and the
// pending queue. An admission claims its hosts in the ledger before its
// Commit lets the reservation marks go, so a cycle that sees the hosts
// unreserved sees them held too; and a failed admission is Pending again
// before it gives its hosts back, so a cycle that sees them free sees the
// job pending. A job that finishes between the running and the ledger
// reads shows no hosts, and the planner evicts no job without hosts.
func (s *System) runCycle() {
	if !s.queue.HasPending() {
		return
	}
	// The schedulable fleet: alive and unreserved (in-flight admissions
	// hold their targets as reservations, which drop out here).
	fleet := s.reg.EligibleHosts(registry.ProcInfo{}, nil)
	names := make([]string, len(fleet))
	for i := range fleet {
		names[i] = fleet[i].Name
	}
	// Per-job host eligibility: which of this cycle's fleet fit the job's
	// schema, filled in below for the pending and running jobs.
	elig := make(map[string]map[string]bool)
	eligible := func(job, host string) bool {
		set, ok := elig[job]
		return !ok || set[host]
	}
	running := s.queue.Running()
	s.mu.Lock()
	view := s.ledger.View(names, running, eligible)
	s.mu.Unlock()
	pending := s.queue.Pending()
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

// reserve reserves Admission.Reserves for an admission that has just turned
// Reserving. On failure the job is Pending again and reserve returns nil.
func (s *System) reserve(adm jobs.Admission) *registry.GangReservation {
	g, err := s.reg.ReserveHosts(adm.Reserves())
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
	for _, ev := range adm.Evictions {
		s.evictVictim(ev)
	}
	// A failed Commit has released the reservation marks already; the
	// ledger holds the hosts until the job is Pending again, and Commit
	// hands the migration destinations to the migrated ranks.
	run := s.awaitClaim(spec, adm.Hosts)
	if run == nil {
		requeue("eviction timed out")
		s.abortEvictions(adm, g)
		return
	}
	if err := g.Commit(); err != nil {
		s.opts.Metrics.Counter(CtrJobsReservations).Inc()
		requeue("reservation lost: " + err.Error())
		s.dropRun(run)
		return
	}
	if _, err := s.launchRun(job, run, adm.Hosts); err != nil {
		requeue("launch failed: " + err.Error())
		s.dropRun(run)
		return
	}
	s.opts.Metrics.Counter(CtrJobsAdmitted).Inc()
}

// abortEvictions gives an admission's reservation back. A victim being
// requeued whole lent it the hosts its settled ranks left; they are the
// victim's again until it is Pending, as unreserved hosts are. rankSettled
// decides under s.mu too, so a rank settling now lends before the abort or
// keeps its host after it.
func (s *System) abortEvictions(adm jobs.Admission, g *registry.GangReservation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g.Abort()
	for _, ev := range adm.Evictions {
		if run := s.jobRuns[ev.Job]; run != nil && ev.Mode == jobs.EvictRequeue {
			run.mu.Lock()
			for _, sl := range run.slots {
				h := sl.app.Host()
				if run.intent == intentRequeue && sl.done && slices.Contains(adm.Reserves(), h) && !slices.Contains(s.ledger.Placement(ev.Job), h) {
					s.ledger.Pin(ev.Job, h)
				}
			}
			run.mu.Unlock()
		}
	}
}

// evictVictim fires one eviction. Completion is observed by awaitClaim
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
		run.evictLocked()
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

// awaitClaim claims an admission's hosts for its job once no other job
// holds any, polling in virtual time; nil when the evictions time out or
// the dispatcher stops.
func (s *System) awaitClaim(spec jobs.Spec, hosts []string) *jobRun {
	deadline := s.clock.Now().Add(evictionTimeout)
	for {
		if run := s.claimRun(spec, hosts, true); run != nil {
			return run
		}
		if s.clock.Now().After(deadline) || vclock.Wait(s.clock, evictionPoll, s.dispatchStop) {
			return nil
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

// launchRun starts every rank of a claimed job on hosts, in rank order, and
// moves it to Running. Requeued jobs restore ranks from their checkpoints
// when the store has one; fresh admissions (and ranks without an image)
// cold-start. The rank apps are returned in rank order.
//
// No rank's follow loop starts before the job is Running: a rank whose main
// returns at once settles the job through rankSettled, and a settle that
// overtook the Running transition would leave the launch to fail on a job
// that had already finished.
func (s *System) launchRun(job *jobs.Job, run *jobRun, hosts []string) ([]*App, error) {
	spec := run.spec
	restore := job.Requeues() > 0
	apps := make([]*App, 0, len(hosts))
	// All-or-nothing: put the partial gang down (Evict, not Kill — no
	// failover burn on a launch we are unwinding ourselves). The ranks'
	// follow loops still run, without a settle hook, so each one
	// deregisters and settles its App; the job is the caller's to settle,
	// and the run the caller's to drop once it has.
	unwind := func(err error) ([]*App, error) {
		for _, a := range apps {
			a.Process().Evict()
			vclock.Go(s.clock, a.follow)
		}
		return nil, err
	}
	for i, host := range hosts {
		name := jobs.RankName(spec.Name, i, spec.Gang)
		app, err := s.startApp(spec.Name, name, host, spec.Schema, spec.Rank(i, spec.Gang), restore)
		if err != nil {
			return unwind(err)
		}
		apps = append(apps, app)
		run.slots[i] = &rankSlot{app: app}
	}
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

// startApp launches (or restores) one migration-enabled process of job and
// wraps it in the App machinery — registry registration and the follow
// loop with its failover budget. Launch, admissions and requeues share it
// (failover shares startProc). A failed start leaves nothing running.
func (s *System) startApp(job, name, host string, sch *rules.Schema, main hpcm.Main, restore bool) (*App, error) {
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
		job:        job,
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
		run.evictLocked()
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

	// The rank gives its host back, but a job requeued whole keeps the hosts
	// no admission reserved until it is Pending and can compete for them
	// (abortEvictions returns the hosts it lent an aborted admission).
	s.mu.Lock()
	if host := sl.app.Host(); s.jobRuns[run.name] == run && (intent != intentRequeue || slices.Contains(s.reg.Reserved(), host)) {
		s.ledger.Exit(run.name, host)
	}
	s.mu.Unlock()
	if !allDone {
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
