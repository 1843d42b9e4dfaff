// Package jobs is the multi-job control plane's data layer: job specs, the
// job state machine, the submission queue, and the pure admission planner
// the scheduler policies drive. The paper's runtime reschedules the
// processes of one MPI job; this package generalises it to a cluster where
// many jobs share the fleet — the production shape of the DMR line of work —
// while keeping every decision deterministic on the sim clock: admission
// order is the submission sequence, and the planner is a pure function of
// the queue and a cluster snapshot, so the live dispatcher (internal/core)
// and the scenario.Runner discrete simulation (-exp multijob, -exp fleet)
// share one brain.
package jobs

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"autoresched/internal/hpcm"
	"autoresched/internal/metrics"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// Spec describes a job to submit.
type Spec struct {
	// Name identifies the job; unique within a Queue. Required.
	Name string
	// Priority orders admission under the priority policies; higher runs
	// first, and a pending gang may preempt strictly lower-priority running
	// jobs. Zero is the lowest priority.
	Priority int
	// Gang is the number of ranks, placed all-or-nothing on Gang distinct
	// hosts. Zero selects 1.
	Gang int
	// Elastic marks the job shrinkable: a preemption may take some of its
	// hosts without requeueing it, as long as at least MinWorld ranks
	// survive. Non-elastic gangs are rigid — lose one host, lose the gang.
	Elastic bool
	// MinWorld is the smallest world an elastic job tolerates; zero
	// selects 1.
	MinWorld int
	// Hosts pins the placement (len must equal Gang): the job bypasses the
	// queue and is admitted synchronously on exactly these hosts — the
	// compatibility path core.System.Launch rides on. Empty lets the
	// scheduler place the gang.
	Hosts []string
	// Schema carries the job's resource requirements; the scheduler only
	// places ranks on hosts the schema fits. May be nil; one that fails
	// Validate is refused at Submit.
	Schema *rules.Schema
	// Rank builds the application body of one rank. Required for live
	// execution (the planner and the simulation never call it).
	Rank func(rank, gang int) hpcm.Main
}

// withDefaults normalises the zero knobs.
func (s Spec) withDefaults() Spec {
	if s.Gang <= 0 {
		s.Gang = 1
	}
	if s.MinWorld <= 0 {
		s.MinWorld = 1
	}
	return s
}

// RankName names one rank's hpcm process: the bare job name for singleton
// jobs (so the single-job compatibility path keeps its process names), and
// name.N for real gangs.
func RankName(job string, rank, gang int) string {
	if gang <= 1 {
		return job
	}
	return fmt.Sprintf("%s.%d", job, rank)
}

// State is a job's lifecycle state.
type State string

const (
	// StatePending: queued, waiting for admission.
	StatePending State = "pending"
	// StateReserving: an admission is in flight — hosts reserved, victims
	// being evicted, ranks not yet launched.
	StateReserving State = "reserving"
	// StateRunning: every rank launched.
	StateRunning State = "running"
	// StatePreempting: a higher-priority admission is evicting this job;
	// it returns to StatePending (requeue) or StateRunning (shrink).
	StatePreempting State = "preempting"
	// StateCompleted: every rank finished without error.
	StateCompleted State = "completed"
	// StateFailed: a rank failed terminally.
	StateFailed State = "failed"
	// StateCancelled: cancelled before or during execution.
	StateCancelled State = "cancelled"
)

// terminal reports whether a state ends the lifecycle.
func (s State) terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// Job is one submitted job's state machine. All mutation goes through the
// owning Queue's lock; reads take the same lock.
type Job struct {
	q    *Queue
	spec Spec
	seq  int64

	state     State
	requeues  int
	placement []string
	err       error
	done      vclock.Event
}

// Spec returns the job's (defaulted) spec.
func (j *Job) Spec() Spec { return j.spec }

// Name returns the job name.
func (j *Job) Name() string { return j.spec.Name }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.state
}

// Requeues reports how many times the job went back to Pending after
// running (preemption requeues and failure recoveries).
func (j *Job) Requeues() int {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.requeues
}

// Wait blocks until the job reaches a terminal state and returns its error
// (nil for Completed).
func (j *Job) Wait() error {
	vclock.Await(j.q.clock, &j.done)
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.err
}

// Done fires when the job reaches a terminal state.
func (j *Job) Done() *vclock.Event { return &j.done }

// Err returns the terminal error (nil before termination or on success).
func (j *Job) Err() error {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.err
}

// ErrCancelled is the terminal error of a cancelled job.
var ErrCancelled = errors.New("jobs: job cancelled")

// Queue is the submission queue: it owns every job's state machine and
// hands the planner deterministic pending/running snapshots. Admission
// itself is the dispatcher's business (core.System live, scenario.Runner
// offline); the queue only keeps the book.
type Queue struct {
	clock vclock.Clock
	sink  metrics.Sink

	mu    sync.Mutex
	seq   int64
	jobs  map[string]*Job
	order []*Job // submission order
}

// NewQueue creates an empty queue on a clock. sink, when non-nil, receives
// every lifecycle transition (Source "jobs"), synchronously under the queue
// lock — sink implementations must not call back into the queue.
func NewQueue(clock vclock.Clock, sink metrics.Sink) *Queue {
	if clock == nil {
		clock = vclock.Real()
	}
	return &Queue{clock: clock, sink: sink, jobs: make(map[string]*Job)}
}

// Submit validates the spec and enqueues a Pending job. Admission order
// over equal priorities is submission order (the sequence number), which on
// the sim clock makes the whole schedule deterministic.
func (q *Queue) Submit(spec Spec) (*Job, error) {
	if spec.Name == "" {
		return nil, errors.New("jobs: Spec.Name is required")
	}
	spec = spec.withDefaults()
	if len(spec.Hosts) > 0 && len(spec.Hosts) != spec.Gang {
		return nil, fmt.Errorf("jobs: job %q pins %d hosts for a gang of %d", spec.Name, len(spec.Hosts), spec.Gang)
	}
	if spec.MinWorld > spec.Gang {
		return nil, fmt.Errorf("jobs: job %q MinWorld %d exceeds gang %d", spec.Name, spec.MinWorld, spec.Gang)
	}
	if spec.Schema != nil {
		if err := spec.Schema.Validate(); err != nil {
			return nil, fmt.Errorf("jobs: job %q: %w", spec.Name, err)
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.jobs[spec.Name]; ok {
		return nil, fmt.Errorf("jobs: job %q already submitted", spec.Name)
	}
	q.seq++
	j := &Job{
		q:     q,
		spec:  spec,
		seq:   q.seq,
		state: StatePending,
	}
	q.jobs[spec.Name] = j
	q.order = append(q.order, j)
	q.emitLocked(j, StatePending, "submitted")
	return j, nil
}

// Cancel moves a job toward Cancelled. A Pending job terminates
// immediately; for a job in flight the transition is recorded and the
// dispatcher finishes the teardown (evicting its ranks), so Cancel reports
// the state the job was in. Cancelling a terminal job is a no-op.
func (q *Queue) Cancel(name string) (State, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[name]
	if !ok {
		return "", fmt.Errorf("jobs: unknown job %q", name)
	}
	prior := j.state
	if prior.terminal() {
		return prior, nil
	}
	if prior == StatePending {
		q.settleLocked(j, StateCancelled, ErrCancelled, "cancelled while pending")
	}
	return prior, nil
}

// Forget drops a terminal job from the queue, freeing its name for
// resubmission — the single-job compatibility path (core.System.Launch)
// reuses process names across launches. Forgetting a live job is an error.
func (q *Queue) Forget(name string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[name]
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", name)
	}
	if !j.state.terminal() {
		return fmt.Errorf("jobs: job %q is %s, not terminal", name, j.state)
	}
	delete(q.jobs, name)
	q.order = slices.DeleteFunc(q.order, func(o *Job) bool { return o == j })
	return nil
}

// Get returns a submitted job by name.
func (q *Queue) Get(name string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[name]
	return j, ok
}

// List returns every job in submission order.
func (q *Queue) List() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]*Job(nil), q.order...)
}

// Pending snapshots the queued jobs as planner views, in submission order.
func (q *Queue) Pending() []JobView {
	return q.views(StatePending)
}

// Running snapshots the running jobs as planner views, in submission order.
func (q *Queue) Running() []JobView {
	return q.views(StateRunning)
}

// HasPending reports whether any job is queued, without snapshotting.
func (q *Queue) HasPending() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return slices.ContainsFunc(q.order, func(j *Job) bool { return j.state == StatePending })
}

// views snapshots the jobs in one state, in submission order, in two
// allocations: every view's Hosts is a full slice expression over one
// backing array, so an append by one caller cannot write into the next.
func (q *Queue) views(want State) []JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	n, hosts := 0, 0
	for _, j := range q.order {
		if j.state == want {
			n, hosts = n+1, hosts+len(j.placement)
		}
	}
	out := make([]JobView, 0, n)
	backing := make([]string, 0, hosts)
	for _, j := range q.order {
		if j.state != want {
			continue
		}
		backing = append(backing, j.placement...)
		out = append(out, JobView{
			Name:     j.spec.Name,
			Priority: j.spec.Priority,
			Gang:     j.spec.Gang,
			Elastic:  j.spec.Elastic,
			MinWorld: j.spec.MinWorld,
			Seq:      j.seq,
			Hosts:    backing[len(backing)-len(j.placement) : len(backing) : len(backing)],
		})
	}
	return out
}

// Transition moves a job between non-terminal states, updating the
// wait-time and requeue bookkeeping. The dispatcher drives it; invalid
// transitions (from a terminal state, or to Reserving from anything but
// Pending — admission is a compare-and-set, so a job planned by two
// overlapping cycles is admitted once) are rejected.
func (q *Queue) Transition(name string, to State, note string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[name]
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", name)
	}
	if j.state.terminal() {
		return fmt.Errorf("jobs: job %q is %s", name, j.state)
	}
	if to.terminal() {
		return fmt.Errorf("jobs: use Settle for terminal state %s", to)
	}
	from := j.state
	switch to {
	case StateReserving:
		if from != StatePending {
			return fmt.Errorf("jobs: job %q is %s, not pending: already admitted", name, from)
		}
	case StatePending:
		if from == StateRunning || from == StatePreempting || from == StateReserving {
			j.requeues++
			j.placement = nil
		}
	default:
		// Running and Preempting need no entry bookkeeping, and terminal
		// states were rejected above (Settle owns those).
	}
	j.state = to
	q.emitLocked(j, to, note)
	return nil
}

// SetPlacement records the hosts a Reserving/Running job occupies. The
// queue keeps its own copy, and keeps the one it has when the placement is
// unchanged.
func (q *Queue) SetPlacement(name string, hosts []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[name]; ok && !slices.Equal(j.placement, hosts) {
		j.placement = append([]string(nil), hosts...)
	}
}

// Settle moves a job to a terminal state with its error.
func (q *Queue) Settle(name string, to State, err error, note string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[name]
	if !ok || j.state.terminal() {
		return
	}
	q.settleLocked(j, to, err, note)
}

func (q *Queue) settleLocked(j *Job, to State, err error, note string) {
	j.state = to
	j.err = err
	j.placement = nil
	j.done.Fire()
	q.emitLocked(j, to, note)
}

// emitLocked publishes one lifecycle transition on the sink: Kind is the
// new state, Proc the job, Note the transition detail. It carries no
// payload; the envelope says it all.
func (q *Queue) emitLocked(j *Job, to State, note string) {
	if q.sink == nil {
		return
	}
	q.sink.Publish(metrics.Event{
		Time:   q.clock.Now(),
		Source: metrics.SourceJobs,
		Kind:   string(to),
		Proc:   j.spec.Name,
		Note:   note,
		Err:    j.err,
	})
}
