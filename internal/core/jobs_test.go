package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/rules"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

// rankJacobi builds a rank factory: every rank runs an independent small
// Jacobi solve with a registered grid, so eviction checkpoints carry real
// state and restores resume it.
func rankJacobi(iters int) func(rank, gang int) hpcm.Main {
	return func(rank, gang int) hpcm.Main {
		return workload.Jacobi(workload.JacobiConfig{
			N: 8, Iters: iters, PollEvery: 1, WorkPerCell: 200,
		})
	}
}

// waitState polls, a virtual second at a time, until the job reaches the
// wanted state.
func waitState(t *testing.T, s *System, job *jobs.Job, want jobs.State) {
	t.Helper()
	for deadline := s.Clock().Now().Add(time.Hour); job.State() != want; s.Clock().Sleep(time.Second) {
		if s.Clock().Now().After(deadline) {
			t.Fatalf("job %s state = %s, never reached %s", job.Name(), job.State(), want)
		}
	}
}

// TestSubmitGangRunsToCompletion: the queued path end to end — a gang of
// two is admitted by the dispatcher onto two distinct hosts, both ranks run
// as ordinary migration-enabled Apps, and the job settles Completed.
func TestSubmitGangRunsToCompletion(t *testing.T) {
	mreg := metrics.NewRegistry()
	var mu sync.Mutex
	var states []jobs.State
	sink := metrics.SinkFunc(func(ev metrics.Event) {
		if ev.Source != metrics.SourceJobs {
			return
		}
		mu.Lock()
		states = append(states, jobs.State(ev.Kind))
		mu.Unlock()
	})
	s, _ := newSystem(t, 1000, 4, Options{
		Metrics:       mreg,
		Events:        sink,
		SchedInterval: 500 * time.Millisecond,
	})
	job, err := s.Submit(jobs.Spec{Name: "gang", Gang: 2, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := job.State(); got != jobs.StateCompleted {
		t.Fatalf("state = %s, want completed", got)
	}
	if got := mreg.Counter(CtrJobsAdmitted).Value(); got != 1 {
		t.Fatalf("admitted counter = %d, want 1", got)
	}
	// The lifecycle ran pending -> reserving -> running -> completed.
	mu.Lock()
	defer mu.Unlock()
	want := []jobs.State{jobs.StatePending, jobs.StateReserving, jobs.StateRunning, jobs.StateCompleted}
	if len(states) != len(want) {
		t.Fatalf("transitions = %v, want %v", states, want)
	}
	for i, st := range want {
		if states[i] != st {
			t.Fatalf("transition %d = %s, want %s", i, states[i], st)
		}
	}
}

// TestSubmitPriorityPreemptionRequeue: a higher-priority gang evicts the
// lowest-priority running job from its contested hosts; the victim
// checkpoints at its next poll-point, requeues, and reruns from the
// checkpoint once capacity frees.
func TestSubmitPriorityPreemptionRequeue(t *testing.T) {
	mreg := metrics.NewRegistry()
	store := hpcm.NewMemStore()
	s, _ := newSystem(t, 1000, 2, Options{
		Metrics:       mreg,
		Checkpoints:   store,
		JobPolicy:     jobs.PriorityPreemptive{},
		SchedInterval: 300 * time.Millisecond,
	})
	victim, err := s.Submit(jobs.Spec{Name: "victim", Gang: 2, Priority: 0, Rank: rankJacobi(500)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, victim, jobs.StateRunning)
	hi, err := s.Submit(jobs.Spec{Name: "hi", Gang: 1, Priority: 2, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	if err := hi.Wait(); err != nil {
		t.Fatalf("high-priority job: %v", err)
	}
	if err := victim.Wait(); err != nil {
		t.Fatalf("victim after requeue: %v", err)
	}
	if victim.Requeues() < 1 {
		t.Fatalf("victim requeues = %d, want >= 1", victim.Requeues())
	}
	if got := mreg.Counter(CtrJobsRequeued).Value(); got < 1 {
		t.Fatalf("requeued counter = %d, want >= 1", got)
	}
	if got := mreg.Counter(CtrCkptRestores).Value(); got < 1 {
		t.Fatalf("checkpoint restores = %d, want >= 1 (victim should resume, not cold-start)", got)
	}
}

// TestSubmitElasticShrink: an elastic victim yields only the contested host
// — it keeps running at the smaller world while the high-priority job takes
// the freed host, and never requeues.
func TestSubmitElasticShrink(t *testing.T) {
	mreg := metrics.NewRegistry()
	s, _ := newSystem(t, 1000, 2, Options{
		Metrics:       mreg,
		JobPolicy:     jobs.PriorityPreemptive{},
		SchedInterval: 300 * time.Millisecond,
	})
	victim, err := s.Submit(jobs.Spec{
		Name: "elastic", Gang: 2, Elastic: true, MinWorld: 1,
		Priority: 0, Rank: rankJacobi(120),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, victim, jobs.StateRunning)
	hi, err := s.Submit(jobs.Spec{Name: "hi", Gang: 1, Priority: 1, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	if err := hi.Wait(); err != nil {
		t.Fatalf("high-priority job: %v", err)
	}
	if err := victim.Wait(); err != nil {
		t.Fatalf("shrunk victim: %v", err)
	}
	if victim.Requeues() != 0 {
		t.Fatalf("victim requeues = %d, want 0 (shrink, not requeue)", victim.Requeues())
	}
	if got := mreg.Counter(CtrJobsShrunk).Value(); got < 1 {
		t.Fatalf("shrunk counter = %d, want >= 1", got)
	}
}

// TestSubmitCancel: cancelling a pending job settles it immediately;
// cancelling a running job evicts its ranks and settles Cancelled.
func TestSubmitCancel(t *testing.T) {
	s, _ := newSystem(t, 1000, 1, Options{SchedInterval: 300 * time.Millisecond})
	running, err := s.Submit(jobs.Spec{Name: "running", Gang: 1, Rank: rankJacobi(500)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running, jobs.StateRunning)
	// The fleet is full, so this one stays pending.
	queued, err := s.Submit(jobs.Spec{Name: "queued", Gang: 1, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CancelJob("queued"); err != nil {
		t.Fatal(err)
	}
	if err := queued.Wait(); err != jobs.ErrCancelled {
		t.Fatalf("queued.Wait = %v, want ErrCancelled", err)
	}
	if err := s.CancelJob("running"); err != nil {
		t.Fatal(err)
	}
	if err := running.Wait(); err != jobs.ErrCancelled {
		t.Fatalf("running.Wait = %v, want ErrCancelled", err)
	}
}

// TestSubmitConcurrentRace: concurrent submissions share the dispatcher,
// the queue, and the gang reservation path; everything drains. Run under
// -race this doubles as the reserve/commit data-race check.
func TestSubmitConcurrentRace(t *testing.T) {
	s, _ := newSystem(t, 1000, 4, Options{SchedInterval: 200 * time.Millisecond})
	const n = 8
	jobsOut := make([]*jobs.Job, n)
	var wg vclock.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		vclock.Go(s.Clock(), func() {
			defer wg.Done()
			name := string(rune('a' + i))
			j, err := s.Submit(jobs.Spec{Name: name, Gang: 1 + i%2, Rank: rankJacobi(15)})
			if err != nil {
				t.Errorf("submit %s: %v", name, err)
				return
			}
			mu.Lock()
			jobsOut[i] = j
			mu.Unlock()
		})
	}
	wg.Wait(s.Clock())
	for _, j := range jobsOut {
		if j == nil {
			continue
		}
		if err := j.Wait(); err != nil {
			t.Fatalf("job %s: %v", j.Name(), err)
		}
	}
}

// TestOverlappingCyclesAdmitOnce: a kicked cycle can run before the
// previous cycle's executor goroutine has. The job it admitted is already
// Reserving, so the second cycle does not plan it again, and exactly one
// executor reserves and launches. Nor does the second cycle plan a job
// submitted in between onto the hosts the first admission took: had the
// executor been the one to reserve them, one of the two gangs would be
// declined and, with the higher priority, preempt the other, an extra
// admission and requeue. One P keeps the executors from running between
// the two cycles.
func TestOverlappingCyclesAdmitOnce(t *testing.T) {
	mreg := metrics.NewRegistry()
	var reserving atomic.Int32
	s, _ := newSystem(t, 1000, 2, Options{
		Metrics: mreg,
		Events: metrics.SinkFunc(func(ev metrics.Event) {
			if ev.Source == metrics.SourceJobs && ev.Proc == "gang" && ev.Kind == string(jobs.StateReserving) {
				reserving.Add(1)
			}
		}),
	})
	// Straight into the queue: no dispatcher runs cycles of its own.
	job, err := s.queue.Submit(jobs.Spec{Name: "gang", Gang: 2, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(1)
	s.runCycle()
	second, err := s.queue.Submit(jobs.Spec{Name: "second", Gang: 2, Rank: rankJacobi(20)})
	var state jobs.State
	if err == nil {
		s.runCycle()
		state = second.State()
		if state == jobs.StatePending {
			// Out of the queue before the first job's completion frees the hosts.
			err = s.CancelJob("second")
		}
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	if state != jobs.StatePending {
		t.Fatalf("second is %s: a cycle planned it onto the hosts the first admission took", state)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := reserving.Load(); got != 1 {
		t.Fatalf("reserving events = %d, want 1", got)
	}
	if got := mreg.Counter(CtrJobsAdmitted).Value(); got != 1 {
		t.Fatalf("admitted counter = %d, want 1", got)
	}
	if job.Requeues() != 0 {
		t.Fatalf("requeues = %d, want 0", job.Requeues())
	}
}

// TestLaunchShimNameReuse: Launch is a Submit shim; a second launch of the
// same name after the first completes must still work (the queue forgets
// terminal jobs on resubmission).
func TestLaunchShimNameReuse(t *testing.T) {
	s, _ := newSystem(t, 1000, 1, Options{})
	for i := 0; i < 2; i++ {
		app, err := s.Launch("again", "ws1", nil, rankJacobi(10)(0, 1))
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		if err := app.Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	job, ok := s.queue.Get("again")
	if !ok {
		t.Fatal("launched job not in queue")
	}
	if got := job.State(); got != jobs.StateCompleted {
		t.Fatalf("state = %s, want completed", got)
	}
}

// TestFailedLaunchLeavesNothingRunning: a launch the registry refuses (its
// host crashed and was unregistered) kills the process it started, so the
// name is free for a launch elsewhere.
func TestFailedLaunchLeavesNothingRunning(t *testing.T) {
	s, _ := newSystem(t, 1000, 2, Options{})
	if err := s.CrashHost("ws1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Launch("x", "ws1", nil, rankJacobi(10)(0, 1)); err == nil {
		t.Fatal("launch on a crashed host accepted")
	}
	app, err := s.Launch("x", "ws2", nil, rankJacobi(10)(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRejectsInvalidSchema: a schema that fails Validate is refused
// at Submit, queued or pinned, rather than failing every launch the
// dispatcher would retry.
func TestSubmitRejectsInvalidSchema(t *testing.T) {
	s, _ := newSystem(t, 1000, 1, Options{})
	if _, err := s.Submit(jobs.Spec{Name: "bad", Schema: &rules.Schema{}, Rank: rankJacobi(10)}); err == nil {
		t.Fatal("Submit accepted a schema with no name")
	}
	if _, err := s.Launch("bad", "ws1", &rules.Schema{}, rankJacobi(10)(0, 1)); err == nil {
		t.Fatal("Launch accepted a schema with no name")
	}
}

// TestRunCycleReservesBeforeExecuting: every job a cycle admits has left
// Pending by the time the cycle returns, so a cycle that runs before the
// admission's executor cannot plan the job a second time. One P keeps the
// executors from running before the check.
func TestRunCycleReservesBeforeExecuting(t *testing.T) {
	s, _ := newSystem(t, 1000, 4, Options{})
	var admitted []*jobs.Job
	for _, name := range []string{"a", "b"} {
		job, err := s.queue.Submit(jobs.Spec{Name: name, Gang: 2, Rank: rankJacobi(20)})
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, job)
	}
	procs := runtime.GOMAXPROCS(1)
	s.runCycle()
	var states []jobs.State
	for _, job := range admitted {
		states = append(states, job.State())
	}
	runtime.GOMAXPROCS(procs)
	for i, job := range admitted {
		if states[i] == jobs.StatePending {
			t.Errorf("job %s still pending after the cycle that admitted it", job.Name())
		}
	}
	for _, job := range admitted {
		if err := job.Wait(); err != nil {
			t.Fatalf("job %s: %v", job.Name(), err)
		}
	}
}

// TestCommitFailureRequeuesBeforeRelease: an admission whose gang Commit
// fails is Pending again before its occupancy claim lets its hosts go. In
// the other order a cycle between the release and the requeue sees the
// hosts free and the job still Reserving, admits another job onto them,
// and the requeued job then preempts that one a second time. The cycle is
// forced by inspecting, at the requeue itself, what a cycle would see. A
// host unregistered while the admission evicts its victim poisons the
// reservation, so Commit fails on every run.
func TestCommitFailureRequeuesBeforeRelease(t *testing.T) {
	var s *System
	var held atomic.Bool
	var requeue atomic.Value // the note express went back to Pending with
	sink := metrics.SinkFunc(func(ev metrics.Event) {
		switch {
		case ev.Source != metrics.SourceJobs:
		case ev.Proc == "batch" && ev.Kind == string(jobs.StatePreempting):
			if err := s.Registry().UnregisterHost("ws2"); err != nil {
				t.Error(err)
			}
		case ev.Proc == "express" && ev.Kind == string(jobs.StatePending) && ev.Note != "submitted":
			requeue.Store(ev.Note)
			held.Store(s.jobRun("express") != nil)
		}
	})
	s, _ = newSystem(t, 1000, 3, Options{Events: sink})
	if _, err := s.Submit(jobs.Spec{Name: "batch", Gang: 1, Hosts: []string{"ws1"}, Rank: rankJacobi(100000)}); err != nil {
		t.Fatal(err)
	}
	express, err := s.queue.Submit(jobs.Spec{Name: "express", Gang: 2, Priority: 1, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.queue.Transition("express", jobs.StateReserving, "admitted"); err != nil {
		t.Fatal(err)
	}
	adm := jobs.Admission{
		Job:       "express",
		Hosts:     []string{"ws1", "ws2"},
		Evictions: []jobs.Eviction{{Job: "batch", Mode: jobs.EvictRequeue, Hosts: []string{"ws1"}}},
	}
	s.execAdmission(adm, s.reserve(adm))
	if note, _ := requeue.Load().(string); !strings.HasPrefix(note, "reservation lost") || express.State() != jobs.StatePending {
		t.Fatalf("express is %s (%q), want requeued to pending by a lost reservation", express.State(), note)
	}
	if !held.Load() {
		t.Fatal("express went back to Pending after its hosts were released: a cycle in between could admit another job onto them")
	}
}

// staggeredRanks builds a rank factory whose rank 0 reaches a poll-point
// every second and rank 1 every 30, twenty times each: evicted together,
// rank 0's host empties half a minute before rank 1's.
func staggeredRanks(s *System) func(rank, gang int) hpcm.Main {
	return func(rank, _ int) hpcm.Main {
		return func(ctx *hpcm.Context) error {
			for i := 0; i < 20; i++ {
				s.Clock().Sleep(time.Duration(1+29*rank) * time.Second)
				if err := ctx.PollPoint("step"); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// TestRequeuedVictimKeepsItsHostsUntilPending: a victim requeued whole
// holds every host it ran on until it is Pending again, so a lower-priority
// job queued behind it cannot take the host its first rank frees while the
// second rank still runs to its poll-point. When the preemptor finishes,
// both hosts go back to the victim.
func TestRequeuedVictimKeepsItsHostsUntilPending(t *testing.T) {
	ring := &metrics.Ring{}
	s, _ := newSystem(t, 0, 2, Options{
		Events:        ring,
		JobPolicy:     jobs.PriorityPreemptive{},
		SchedInterval: time.Second,
	})
	victim, err := s.Submit(jobs.Spec{Name: "victim", Gang: 2, Priority: 1, Rank: staggeredRanks(s)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, victim, jobs.StateRunning)
	low, err := s.Submit(jobs.Spec{Name: "low", Gang: 1, Priority: 0, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	s.Clock().Sleep(2 * time.Second)
	hi, err := s.Submit(jobs.Spec{Name: "hi", Gang: 1, Priority: 2, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*jobs.Job{hi, victim, low} {
		if err := j.Wait(); err != nil {
			t.Fatalf("%s: %v", j.Name(), err)
		}
	}
	var order []string
	for _, ev := range ring.Events() {
		if ev.Source == metrics.SourceJobs && (ev.Kind == string(jobs.StateRunning) || ev.Note == "requeued") {
			order = append(order, ev.Proc+":"+ev.Kind)
		}
	}
	want := "victim:running victim:pending hi:running victim:running low:running"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("starts = %s, want %s", got, want)
	}
}

// TestTimedOutEvictionGivesTheVictimItsHostsBack: hi requeues a victim
// gang of two off both hosts. Rank 0 stops at once and lends its host to
// hi's reservation; rank 1 runs 40 virtual minutes to its poll-point, so
// hi's admission times out at 30. The abort gives rank 0's host back to the
// victim, still Preempting, so a job submitted then, even above hi, waits
// for the victim to be Pending instead of taking that host.
func TestTimedOutEvictionGivesTheVictimItsHostsBack(t *testing.T) {
	s, _ := newSystem(t, 0, 2, Options{JobPolicy: jobs.PriorityPreemptive{}, SchedInterval: time.Second})
	victim, err := s.Submit(jobs.Spec{Name: "victim", Gang: 2, Priority: 1, Rank: func(rank, _ int) hpcm.Main {
		return func(ctx *hpcm.Context) error {
			for i := 0; i < 20; i++ {
				s.Clock().Sleep(time.Duration(1+2399*rank) * time.Second)
				if err := ctx.PollPoint("step"); err != nil {
					return err
				}
			}
			return nil
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, victim, jobs.StateRunning)
	hi, err := s.Submit(jobs.Spec{Name: "hi", Gang: 2, Priority: 2, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	s.Clock().Sleep(10 * time.Second)
	rank0, err := s.RankApp("victim", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !closed(rank0.Settled()) || victim.State() != jobs.StatePreempting || !slices.Contains(s.reg.Reserved(), rank0.Host()) {
		t.Fatalf("set-up: rank 0 settled %v, victim %s, reserved %v; want rank 0's host %s lent to hi", closed(rank0.Settled()), victim.State(), s.reg.Reserved(), rank0.Host())
	}
	s.Clock().Sleep(evictionTimeout)
	if victim.State() != jobs.StatePreempting || hi.State() != jobs.StatePending {
		t.Fatalf("after the timeout: victim %s, hi %s; want preempting, pending", victim.State(), hi.State())
	}
	late, err := s.Submit(jobs.Spec{Name: "late", Gang: 1, Priority: 3, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	s.Clock().Sleep(5 * time.Second)
	s.mu.Lock()
	placed := slices.Clone(s.ledger.Placement("victim"))
	s.mu.Unlock()
	if !slices.Contains(placed, rank0.Host()) || late.State() != jobs.StatePending {
		t.Fatalf("after the abort: the victim holds %v and late is %s; want %s held and late pending", placed, late.State(), rank0.Host())
	}
}

// twoPreemptors runs two high-priority singletons, hi and hi2 (submitted
// hi2After behind hi), against one low-priority gang of two on a fleet of
// two hosts, and checks that the dispatcher reserves only what the planner
// planned: no admission goes back to Pending (a failed reservation does),
// the victim is requeued, and every job completes. It returns the job
// transitions as "job:state(note)". A failed admission is replanned at
// once, at the same virtual instant; should that repeat, the dispatcher is
// halted at the third failure so the test fails instead of spinning.
func twoPreemptors(t *testing.T, elastic bool, hi2After time.Duration) []string {
	t.Helper()
	var s *System
	var mu sync.Mutex
	var order []string
	failed := 0
	sink := metrics.SinkFunc(func(ev metrics.Event) {
		if ev.Source != metrics.SourceJobs {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		order = append(order, ev.Proc+":"+ev.Kind+"("+ev.Note+")")
		if ev.Kind == string(jobs.StatePending) && ev.Note != "submitted" && ev.Note != "requeued" {
			if failed++; failed == 3 {
				s.dispatchStopOnce.Do(func() { close(s.dispatchStop) })
			}
		}
	})
	s, _ = newSystem(t, 0, 2, Options{
		Events:        sink,
		JobPolicy:     jobs.PriorityPreemptive{},
		SchedInterval: time.Second,
	})
	victim, err := s.Submit(jobs.Spec{Name: "victim", Gang: 2, Priority: 1, Elastic: elastic, MinWorld: 1, Rank: staggeredRanks(s)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, victim, jobs.StateRunning)
	all := []*jobs.Job{victim}
	for i, name := range []string{"hi", "hi2"} {
		s.Clock().Sleep(time.Duration(i) * hi2After)
		j, err := s.Submit(jobs.Spec{Name: name, Gang: 1, Priority: 2, Rank: rankJacobi(20)})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
	}
	completed := func() bool {
		for _, j := range all {
			if j.State() != jobs.StateCompleted {
				return false
			}
		}
		return true
	}
	for deadline := s.Clock().Now().Add(time.Hour); !completed() && !closed(s.dispatchStop) && s.Clock().Now().Before(deadline); {
		s.Clock().Sleep(time.Second)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Logf("transitions: %s", strings.Join(order, " "))
	if failed > 0 {
		t.Errorf("%d admissions went back to pending", failed)
	}
	for _, j := range all {
		if j.State() != jobs.StateCompleted {
			t.Errorf("%s is %s, want completed", j.Name(), j.State())
		}
	}
	if victim.Requeues() < 1 {
		t.Errorf("victim requeues = %d, want >= 1", victim.Requeues())
	}
	return slices.Clone(order)
}

// TestTwoPreemptorsOfOneRigidVictim: hi and hi2 arrive together for a
// rigid victim's two hosts. hi requeues the victim and takes one host; the
// other stays with the victim until it is Pending, so hi2 waits for it
// rather than being planned onto a host the victim still holds.
func TestTwoPreemptorsOfOneRigidVictim(t *testing.T) {
	order := twoPreemptors(t, false, 0)
	requeued := slices.Index(order, "victim:pending(requeued)")
	started := slices.Index(order, "hi2:running()")
	if requeued < 0 || started < requeued {
		t.Fatalf("hi2 runs before the victim is pending again: %s", strings.Join(order, " "))
	}
}

// TestTwoPreemptorsOfOneElasticVictim: hi shrinks an elastic victim off
// one host; hi2, arriving while that shrink drains, sees only the victim's
// other host — the shrinking one is hi's reservation — and, that being the
// victim's last rank above MinWorld, requeues it.
func TestTwoPreemptorsOfOneElasticVictim(t *testing.T) {
	twoPreemptors(t, true, 2*time.Second)
}

// TestMigrationMovesTheRelaunchedRank: a requeued job relaunches its ranks
// under their old names, so a migration of a relaunched rank must re-home
// the live App, not the finished one from the first launch, and leave the
// registry with one entry for the rank, at the destination.
func TestMigrationMovesTheRelaunchedRank(t *testing.T) {
	s, _ := newSystem(t, 0, 2, Options{
		JobPolicy:     jobs.PriorityPreemptive{},
		SchedInterval: time.Second,
	})
	victimRank := func(int, int) hpcm.Main {
		return func(ctx *hpcm.Context) error {
			for i := 0; i < 60; i++ {
				s.Clock().Sleep(time.Second)
				if err := ctx.PollPoint("step"); err != nil {
					return err
				}
			}
			return nil
		}
	}
	victim, err := s.Submit(jobs.Spec{Name: "victim", Gang: 2, Priority: 0, Rank: victimRank})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, victim, jobs.StateRunning)
	hi, err := s.Submit(jobs.Spec{Name: "hi", Gang: 1, Priority: 2, Rank: rankJacobi(20)})
	if err != nil {
		t.Fatal(err)
	}
	if err := hi.Wait(); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, victim, jobs.StateRunning)
	if victim.Requeues() != 1 {
		t.Fatalf("victim requeues = %d, want 1", victim.Requeues())
	}

	rank := jobs.RankName("victim", 0, 2)
	var live *App
	s.mu.Lock()
	for _, app := range s.apps[len(s.apps)-2:] { // the relaunch
		if app.Process().Name() == rank {
			live = app
		}
	}
	s.mu.Unlock()
	if live == nil {
		t.Fatalf("%s was not relaunched", rank)
	}
	from := live.Host()
	dest := "ws1"
	if from == dest {
		dest = "ws2"
	}
	if err := s.Migrate(from, proto.MigrateOrder{PID: live.Process().PID(), DestHost: dest}); err != nil {
		t.Fatal(err)
	}
	for deadline := s.Clock().Now().Add(30 * time.Second); live.Host() != dest; s.Clock().Sleep(time.Second) {
		if s.Clock().Now().After(deadline) {
			t.Fatalf("relaunched %s still on %s after its migration to %s", rank, live.Host(), dest)
		}
	}
	var entries []string
	for _, h := range []string{"ws1", "ws2"} {
		for _, p := range s.reg.Processes(h) {
			if p.Name == rank {
				entries = append(entries, h)
			}
		}
	}
	if len(entries) != 1 || entries[0] != dest {
		t.Fatalf("registry holds %s on %v, want once on %s", rank, entries, dest)
	}
	if err := victim.Wait(); err != nil {
		t.Fatal(err)
	}
}

// pollEvery builds a rank factory whose ranks reach a poll-point every
// period, n times. The loop counter is migration state, so a moved rank
// carries on where it stopped.
func pollEvery(s *System, period time.Duration, n int) func(rank, gang int) hpcm.Main {
	return func(int, int) hpcm.Main {
		return func(ctx *hpcm.Context) error {
			var i int
			if err := ctx.Register("i", &i); err != nil {
				return err
			}
			for ; i < n; i++ {
				s.Clock().Sleep(period)
				if err := ctx.PollPoint("step"); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// TestMigrateEvictionHoldsItsDestination: big fits only the fast ws1, so it
// evicts vic from there by migration to ws2. vic moves at its next
// poll-point, seconds later; small, submitted in between, must not be
// admitted onto ws2, which the gang reservation holds until big lands.
// Once big commits, small preempts vic by requeue instead. Every virtual
// second, no host runs ranks of two unsettled jobs, each unsettled rank
// runs where the ledger places its job, and all three jobs complete.
func TestMigrateEvictionHoldsItsDestination(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	cl := NewCluster(clock, 12.5e6)
	t.Cleanup(cl.Close)
	if _, err := cl.AddHost("ws1", sim.Config{Speed: 2e6, MemTotal: 128 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddHost("ws2", sim.Config{Speed: 1e6, MemTotal: 128 << 20}); err != nil {
		t.Fatal(err)
	}
	mreg := metrics.NewRegistry()
	s, err := New(Options{Cluster: cl, Metrics: mreg, JobPolicy: jobs.PriorityPreemptive{}, SchedInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddNodes("ws1", "ws2"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)

	vic, err := s.Submit(jobs.Spec{Name: "vic", Priority: 0, Rank: pollEvery(s, 5*time.Second, 20)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, vic, jobs.StateRunning)
	s.Clock().Sleep(20 * time.Second)
	fast := &rules.Schema{Name: "big", Requirements: rules.Requirements{MinCPUSpeed: 2e6}}
	big, err := s.Submit(jobs.Spec{Name: "big", Priority: 2, Schema: fast, Rank: rankJacobi(2000)})
	if err != nil {
		t.Fatal(err)
	}
	s.Clock().Sleep(1500 * time.Millisecond)
	small, err := s.Submit(jobs.Spec{Name: "small", Priority: 1, Rank: rankJacobi(2000)})
	if err != nil {
		t.Fatal(err)
	}

	all := []*jobs.Job{vic, big, small}
	for i := 0; i < 600; i++ {
		runs := map[string]string{}
		for _, j := range all {
			app, err := s.RankApp(j.Name(), 0)
			if err != nil || closed(app.Settled()) {
				continue
			}
			if other, ok := runs[app.Host()]; ok {
				t.Fatalf("t+%ds: %s runs %s and %s", i, app.Host(), other, j.Name())
			}
			runs[app.Host()] = j.Name()
			s.mu.Lock()
			placed := slices.Clone(s.ledger.Placement(j.Name()))
			s.mu.Unlock()
			if !slices.Contains(placed, app.Host()) {
				t.Fatalf("t+%ds: %s runs on %s, the ledger places it on %v", i, j.Name(), app.Host(), placed)
			}
		}
		s.Clock().Sleep(time.Second)
	}
	for _, j := range all {
		if j.State() != jobs.StateCompleted {
			t.Errorf("%s is %s, want completed", j.Name(), j.State())
		}
	}
	if got := mreg.Counter(CtrJobsMigrated).Value(); got != 1 {
		t.Errorf("migrate evictions = %d, want 1", got)
	}
	if vic.Requeues() != 1 {
		t.Errorf("vic requeues = %d, want 1 (by small, once big landed)", vic.Requeues())
	}
}
