package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/metrics"
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

// waitState polls (in wall time; the scaled clock runs underneath) until the
// job reaches the wanted state.
func waitState(t *testing.T, job *jobs.Job, want jobs.State) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for job.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s state = %s, never reached %s", job.Name(), job.State(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitGangRunsToCompletion: the queued path end to end — a gang of
// two is admitted by the dispatcher onto two distinct hosts, both ranks run
// as ordinary migration-enabled Apps, and the job settles Completed.
func TestSubmitGangRunsToCompletion(t *testing.T) {
	mreg := metrics.NewRegistry()
	var mu sync.Mutex
	var trans []jobs.Event
	sink := metrics.On(func(ev jobs.Event) {
		mu.Lock()
		trans = append(trans, ev)
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
	var states []jobs.State
	for _, ev := range trans {
		states = append(states, ev.To)
	}
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
	waitState(t, victim, jobs.StateRunning)
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
	waitState(t, victim, jobs.StateRunning)
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
	waitState(t, running, jobs.StateRunning)
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
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
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
		}(i)
	}
	wg.Wait()
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
// executor reserves and launches. One P keeps the executors from running
// between the two cycles.
func TestOverlappingCyclesAdmitOnce(t *testing.T) {
	mreg := metrics.NewRegistry()
	var reserving atomic.Int32
	s, _ := newSystem(t, 1000, 2, Options{
		Metrics: mreg,
		Events: metrics.On(func(ev jobs.Event) {
			if ev.To == jobs.StateReserving {
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
	s.runCycle()
	runtime.GOMAXPROCS(procs)
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
