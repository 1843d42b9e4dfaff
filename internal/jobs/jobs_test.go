package jobs

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/vclock"
)

func newTestQueue(sink metrics.Sink) *Queue {
	return NewQueue(vclock.NewAuto(vclock.Epoch), sink)
}

func TestSubmitValidation(t *testing.T) {
	q := newTestQueue(nil)
	if _, err := q.Submit(Spec{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := q.Submit(Spec{Name: "a", Gang: 2, Hosts: []string{"h1"}}); err == nil {
		t.Fatal("pinned host count != gang accepted")
	}
	if _, err := q.Submit(Spec{Name: "a", Gang: 2, MinWorld: 3}); err == nil {
		t.Fatal("MinWorld > Gang accepted")
	}
	if _, err := q.Submit(Spec{Name: "a"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Submit(Spec{Name: "a"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestSpecDefaults(t *testing.T) {
	q := newTestQueue(nil)
	j, err := q.Submit(Spec{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	spec := j.Spec()
	if spec.Gang != 1 || spec.MinWorld != 1 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
}

func TestRankName(t *testing.T) {
	if got := RankName("job", 0, 1); got != "job" {
		t.Fatalf("singleton rank name = %q, want job", got)
	}
	if got := RankName("job", 2, 4); got != "job.2" {
		t.Fatalf("gang rank name = %q, want job.2", got)
	}
}

func TestLifecycle(t *testing.T) {
	q := newTestQueue(nil)
	j, err := q.Submit(Spec{Name: "a", Gang: 2})
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != StatePending {
		t.Fatalf("state = %s, want pending", j.State())
	}
	if err := q.Transition("a", StateReserving, ""); err != nil {
		t.Fatal(err)
	}
	q.SetPlacement("a", []string{"h1", "h2"})
	if err := q.Transition("a", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if got := j.Placement(); len(got) != 2 || got[0] != "h1" {
		t.Fatalf("placement = %v", got)
	}
	// Preemption requeue: back to pending counts a requeue and clears the
	// placement.
	if err := q.Transition("a", StatePreempting, "evicted"); err != nil {
		t.Fatal(err)
	}
	if err := q.Transition("a", StatePending, "requeued"); err != nil {
		t.Fatal(err)
	}
	if j.Requeues() != 1 {
		t.Fatalf("requeues = %d, want 1", j.Requeues())
	}
	if got := j.Placement(); len(got) != 0 {
		t.Fatalf("placement after requeue = %v", got)
	}
	q.Settle("a", StateCompleted, nil, "done")
	if err := j.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if j.State() != StateCompleted {
		t.Fatalf("state = %s", j.State())
	}
	// Terminal states reject further transitions; Settle is idempotent.
	if err := q.Transition("a", StateRunning, ""); err == nil {
		t.Fatal("transition out of terminal state accepted")
	}
	q.Settle("a", StateFailed, errors.New("x"), "")
	if j.State() != StateCompleted {
		t.Fatal("second settle overwrote terminal state")
	}
}

// TestAdmissionIsCompareAndSet: only a Pending job can move to Reserving, so
// the second of two executors planned for the same job stops at its first
// statement — without touching the state or the requeue count.
func TestAdmissionIsCompareAndSet(t *testing.T) {
	q := newTestQueue(nil)
	j, err := q.Submit(Spec{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Transition("a", StateReserving, "admitted"); err != nil {
		t.Fatal(err)
	}
	for _, from := range []State{StateReserving, StateRunning, StatePreempting} {
		if from != StateReserving {
			if err := q.Transition("a", from, ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.Transition("a", StateReserving, "admitted"); err == nil {
			t.Fatalf("second admission accepted from %s", from)
		}
		if j.State() != from || j.Requeues() != 0 {
			t.Fatalf("refused admission changed the job: state %s (want %s), requeues %d", j.State(), from, j.Requeues())
		}
	}
}

func TestCancel(t *testing.T) {
	q := newTestQueue(nil)
	j, _ := q.Submit(Spec{Name: "a"})
	if _, err := q.Cancel("nope"); err == nil {
		t.Fatal("unknown job cancel accepted")
	}
	prior, err := q.Cancel("a")
	if err != nil || prior != StatePending {
		t.Fatalf("cancel = %s, %v", prior, err)
	}
	if !errors.Is(j.Err(), ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", j.Err())
	}
	// Cancelling a running job reports the prior state and leaves the
	// teardown to the dispatcher.
	r, _ := q.Submit(Spec{Name: "b"})
	_ = q.Transition("b", StateReserving, "")
	_ = q.Transition("b", StateRunning, "")
	prior, err = q.Cancel("b")
	if err != nil || prior != StateRunning {
		t.Fatalf("cancel running = %s, %v", prior, err)
	}
	if r.State() != StateRunning {
		t.Fatalf("running job state flipped to %s on cancel", r.State())
	}
}

func TestQueueSnapshotsAndEvents(t *testing.T) {
	var seen []metrics.Event
	sink := metrics.SinkFunc(func(ev metrics.Event) { seen = append(seen, ev) })
	q := newTestQueue(sink)
	_, _ = q.Submit(Spec{Name: "a", Priority: 2})
	_, _ = q.Submit(Spec{Name: "b"})
	_ = q.Transition("b", StateReserving, "")
	_ = q.Transition("b", StateRunning, "")
	q.SetPlacement("b", []string{"h1"})

	pend := q.Pending()
	if len(pend) != 1 || pend[0].Name != "a" || pend[0].Priority != 2 || pend[0].Seq != 1 {
		t.Fatalf("pending = %+v", pend)
	}
	run := q.Running()
	if len(run) != 1 || run[0].Name != "b" || len(run[0].Hosts) != 1 {
		t.Fatalf("running = %+v", run)
	}
	if got := len(q.List()); got != 2 {
		t.Fatalf("list = %d jobs", got)
	}

	// The sink saw every transition, the new state as its Kind, in order.
	want := []struct {
		job string
		to  State
	}{
		{"a", StatePending},
		{"b", StatePending},
		{"b", StateReserving},
		{"b", StateRunning},
	}
	if len(seen) != len(want) {
		t.Fatalf("events = %d, want %d (%v)", len(seen), len(want), seen)
	}
	for i, w := range want {
		if seen[i].Proc != w.job || seen[i].Kind != string(w.to) {
			t.Fatalf("event %d = %+v, want %+v", i, seen[i], w)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"fifo", "priority-preemptive", "backfill"} {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != name {
			t.Fatalf("PolicyByName(%s) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// runningQueue holds n running jobs, job i on hosts hi.0 and hi.1, and one
// pending job.
func runningQueue(t testing.TB, n int) *Queue {
	t.Helper()
	q := newTestQueue(nil)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		if _, err := q.Submit(Spec{Name: name, Gang: 2}); err != nil {
			t.Fatal(err)
		}
		if err := q.Transition(name, StateReserving, ""); err != nil {
			t.Fatal(err)
		}
		q.SetPlacement(name, []string{fmt.Sprintf("h%d.0", i), fmt.Sprintf("h%d.1", i)})
		if err := q.Transition(name, StateRunning, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Submit(Spec{Name: "waiting"}); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRunningViewsShareNoWritableHosts: every view's Hosts is cut from one
// backing array, so an append to one must not reach the next view, and no
// write through a view reaches the queue's stored placement.
func TestRunningViewsShareNoWritableHosts(t *testing.T) {
	q := runningQueue(t, 2)
	run := q.Running()
	run[0].Hosts = append(run[0].Hosts, "intruder")
	run[0].Hosts[0] = "overwritten"
	if want := []string{"h1.0", "h1.1"}; !reflect.DeepEqual(run[1].Hosts, want) {
		t.Fatalf("appending to view 0 changed view 1: %v, want %v", run[1].Hosts, want)
	}
	for i := 0; i < 2; i++ {
		j, _ := q.Get(fmt.Sprintf("r%d", i))
		if want := []string{fmt.Sprintf("h%d.0", i), fmt.Sprintf("h%d.1", i)}; !reflect.DeepEqual(j.Placement(), want) {
			t.Fatalf("r%d placement = %v after writing through a view, want %v", i, j.Placement(), want)
		}
	}
	if got := q.Running(); !reflect.DeepEqual(got[0].Hosts, []string{"h0.0", "h0.1"}) {
		t.Fatalf("a fresh snapshot reads %v", got[0].Hosts)
	}
}

// TestSetPlacementCopies: the queue keeps its own copy of a placement, both
// when it changes and when an equal placement is set again.
func TestSetPlacementCopies(t *testing.T) {
	q := runningQueue(t, 1)
	j, _ := q.Get("r0")
	hosts := []string{"a", "b"}
	q.SetPlacement("r0", hosts)
	hosts[0] = "mutated"
	if got := j.Placement(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("placement = %v after the caller's slice changed", got)
	}
	same := []string{"a", "b"}
	q.SetPlacement("r0", same)
	same[1] = "mutated"
	if got := j.Placement(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("placement = %v after an equal placement's slice changed", got)
	}
}

// TestHasPending follows the queue's pending set without a snapshot.
func TestHasPending(t *testing.T) {
	q := runningQueue(t, 1)
	if !q.HasPending() {
		t.Fatal("HasPending = false with a job queued")
	}
	if _, err := q.Cancel("waiting"); err != nil {
		t.Fatal(err)
	}
	if q.HasPending() {
		t.Fatal("HasPending = true with only a running job")
	}
}
