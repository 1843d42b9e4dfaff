package malleable

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// countApp is the minimal re-decomposable App: the global state is size
// bytes, a shard is a contiguous slice of it, and a step increments every
// byte of the rank's block. After S steps every byte is S regardless of how
// often the world resized — plus each step runs an Allreduce so every
// incarnation proves its current communicator works.
type countApp struct {
	size  int
	steps int
}

func (a *countApp) Name() string { return "count" }
func (a *countApp) Steps() int   { return a.steps }

func (a *countApp) Fresh() ([]byte, error) { return make([]byte, a.size), nil }

func (a *countApp) Split(global []byte, world int) ([][]byte, error) {
	if world > len(global) {
		return nil, fmt.Errorf("countApp: world %d > size %d", world, len(global))
	}
	shards := make([][]byte, world)
	for r := 0; r < world; r++ {
		lo, hi := r*len(global)/world, (r+1)*len(global)/world
		shards[r] = append([]byte(nil), global[lo:hi]...)
	}
	return shards, nil
}

func (a *countApp) Merge(shards [][]byte) ([]byte, error) {
	var global []byte
	for _, sh := range shards {
		global = append(global, sh...)
	}
	if len(global) != a.size {
		return nil, fmt.Errorf("countApp: merged %d bytes, want %d", len(global), a.size)
	}
	return global, nil
}

func (a *countApp) Open(shard []byte) (Block, error) {
	return &countBlock{size: a.size, data: append([]byte(nil), shard...)}, nil
}

// countBlock is one rank's bytes of a countApp, stepped in place.
type countBlock struct {
	size int
	data []byte
}

func (b *countBlock) Step(rc *Rank) error {
	var total int
	if err := rc.Comm().Allreduce(len(b.data), &total, mpi.Sum); err != nil {
		return err
	}
	if total != b.size {
		return fmt.Errorf("countApp: world covers %d bytes, want %d", total, b.size)
	}
	for i := range b.data {
		b.data[i]++
	}
	return nil
}

func (b *countBlock) Encode() ([]byte, error) { return append([]byte(nil), b.data...), nil }

func (b *countBlock) Size() int64 { return int64(len(b.data)) }

// eventLog collects observer events safely across goroutines.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) observe(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) phases() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.events))
	for i, ev := range l.events {
		out[i] = ev.Phase
	}
	return out
}

func (l *eventLog) find(phase string) (Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if ev.Phase == phase {
			return ev, true
		}
	}
	return Event{}, false
}

// jref hands the *Job to hooks that fire on rank goroutines before the
// test's Start call returns.
type jref struct {
	mu sync.Mutex
	j  *Job
}

func (r *jref) set(j *Job) { r.mu.Lock(); r.j = j; r.mu.Unlock() }

func (r *jref) get() *Job {
	for {
		r.mu.Lock()
		j := r.j
		r.mu.Unlock()
		if j != nil {
			return j
		}
		runtime.Gosched()
	}
}

// stepGate wraps an App to run a hook at the start of a chosen step on
// rank 0 — the deterministic way to fire a Propose mid-run.
type stepGate struct {
	App
	at   int
	once sync.Once
	hook func()
}

func (g *stepGate) Open(shard []byte) (Block, error) {
	blk, err := g.App.Open(shard)
	if err != nil {
		return nil, err
	}
	return &gatedBlock{Block: blk, gate: g}, nil
}

// gatedBlock is a block of a stepGate's App.
type gatedBlock struct {
	Block
	gate *stepGate
}

func (b *gatedBlock) Step(rc *Rank) error {
	if rc.Rank() == 0 && rc.Step() == b.gate.at {
		b.gate.once.Do(b.gate.hook)
	}
	return b.Block.Step(rc)
}

func checkResult(t *testing.T, result []byte, size, steps int) {
	t.Helper()
	if len(result) != size {
		t.Fatalf("result has %d bytes, want %d", len(result), size)
	}
	for i, b := range result {
		if int(b) != steps {
			t.Fatalf("result[%d] = %d, want %d", i, b, steps)
		}
	}
}

func hosts(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return out
}

func TestExpandCommit(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 64, steps: 12}
	log := &eventLog{}
	reg := metrics.NewRegistry()

	var jr jref
	gated := &stepGate{App: app, at: 4, hook: func() {
		if err := jr.get().Propose(hosts("h", 5)); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{
		Universe: u, App: gated, InitialHosts: hosts("h", 2),
		Events: metrics.On(log.observe), Metrics: reg,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkResult(t, result, app.size, app.steps)
	if w := j.World(); w != 5 {
		t.Fatalf("final world = %d, want 5", w)
	}
	got := fmt.Sprint(j.Placement())
	if want := fmt.Sprint(hosts("h", 5)); got != want {
		t.Fatalf("placement = %s, want %s", got, want)
	}
	committed, aborted := j.Resizes()
	if committed != 1 || aborted != 0 {
		t.Fatalf("resizes = %d committed / %d aborted, want 1/0", committed, aborted)
	}
	if n := reg.Counter(CtrRanksSpawned).Value(); n != 3 {
		t.Fatalf("ranks spawned = %d, want 3", n)
	}
	want := []string{PhasePropose, PhaseQuiesce, PhaseReshape, PhaseSpawn, PhaseResume}
	if got := fmt.Sprint(log.phases()); got != fmt.Sprint(want) {
		t.Fatalf("phases = %v, want %v", log.phases(), want)
	}
	for _, name := range []string{MetricQuiesceSeconds, MetricReshapeSeconds, MetricResizeSeconds} {
		if n := reg.Histogram(name).Count(); n != 1 {
			t.Errorf("%s count = %d, want 1", name, n)
		}
	}
	resume, _ := log.find(PhaseResume)
	if resume.OldWorld != 2 || resume.NewWorld != 5 || len(resume.Added) != 3 {
		t.Fatalf("resume event %+v, want 2->5 with 3 added", resume)
	}
}

func TestShrinkCommit(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 60, steps: 10}
	log := &eventLog{}
	reg := metrics.NewRegistry()

	var jr jref
	gated := &stepGate{App: app, at: 3, hook: func() {
		// Keep h1 (root) and h4: shrink 4 -> 2 with a non-contiguous
		// survivor set.
		if err := jr.get().Propose([]string{"h1", "h4"}); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{
		Universe: u, App: gated, InitialHosts: hosts("h", 4),
		Events: metrics.On(log.observe), Metrics: reg,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkResult(t, result, app.size, app.steps)
	if got := fmt.Sprint(j.Placement()); got != fmt.Sprint([]string{"h1", "h4"}) {
		t.Fatalf("placement = %s, want [h1 h4]", got)
	}
	if n := reg.Counter(CtrRanksRetired).Value(); n != 2 {
		t.Fatalf("ranks retired = %d, want 2", n)
	}
	resume, ok := log.find(PhaseResume)
	if !ok || fmt.Sprint(resume.Removed) != fmt.Sprint([]string{"h2", "h3"}) {
		t.Fatalf("resume event %+v, want removed [h2 h3]", resume)
	}
}

func TestRepeatedResizes(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 48, steps: 15}

	var jr jref
	var once2 sync.Once
	grow := &stepGate{App: app, at: 3, hook: func() {
		if err := jr.get().Propose(hosts("h", 6)); err != nil {
			t.Errorf("grow: %v", err)
		}
	}}
	// Second gate layered on the first: shrink (and migrate h2 -> h8) at
	// step 9, after the grow committed.
	both := &stepGate{App: grow, at: 9, hook: func() {
		once2.Do(func() {
			if err := jr.get().Propose([]string{"h1", "h8", "h3"}); err != nil {
				t.Errorf("shrink: %v", err)
			}
		})
	}}
	j, err := Start(Options{Universe: u, App: both, InitialHosts: hosts("h", 3)})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkResult(t, result, app.size, app.steps)
	if got := fmt.Sprint(j.Placement()); got != fmt.Sprint([]string{"h1", "h3", "h8"}) {
		t.Fatalf("placement = %s, want [h1 h3 h8]", got)
	}
	if committed, aborted := j.Resizes(); committed != 2 || aborted != 0 {
		t.Fatalf("resizes = %d/%d, want 2 committed / 0 aborted", committed, aborted)
	}
}

func TestSpawnFailureAborts(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	dead := map[string]bool{"h9": true}
	var mu sync.Mutex
	u := mpi.NewUniverse(mpi.Options{Clock: clock, HostCheck: func(h string) error {
		mu.Lock()
		defer mu.Unlock()
		if dead[h] {
			return errors.New("host is down")
		}
		return nil
	}})
	app := &countApp{size: 48, steps: 10}
	log := &eventLog{}
	reg := metrics.NewRegistry()

	var jr jref
	gated := &stepGate{App: app, at: 2, hook: func() {
		if err := jr.get().Propose([]string{"h1", "h2", "h3", "h9"}); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{
		Universe: u, App: gated, InitialHosts: hosts("h", 3),
		Events: metrics.On(log.observe), Metrics: reg,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkResult(t, result, app.size, app.steps)
	if w := j.World(); w != 3 {
		t.Fatalf("world after abort = %d, want 3 (unchanged)", w)
	}
	if committed, aborted := j.Resizes(); committed != 0 || aborted != 1 {
		t.Fatalf("resizes = %d/%d, want 0 committed / 1 aborted", committed, aborted)
	}
	if n := reg.Counter(CtrResizeAborted).Value(); n != 1 {
		t.Fatalf("abort counter = %d, want 1", n)
	}
	ab, ok := log.find(PhaseAbort)
	if !ok || ab.Err == "" {
		t.Fatalf("abort event missing or without reason: %+v", ab)
	}
	if _, ok := log.find(PhaseSpawn); ok {
		t.Fatal("spawn phase emitted despite spawn failure")
	}
}

func TestCrashNewRankMidExpandAborts(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	var mu sync.Mutex
	dead := map[string]bool{}
	u := mpi.NewUniverse(mpi.Options{Clock: clock, HostCheck: func(h string) error {
		mu.Lock()
		defer mu.Unlock()
		if dead[h] {
			return errors.New("host is down")
		}
		return nil
	}})
	app := &countApp{size: 48, steps: 10}
	log := &eventLog{}

	var jr jref
	// Kill the freshly spawned rank's host in the spawn window: after the
	// merge, before any state lands on it.
	obs := func(ev Event) {
		log.observe(ev)
		if ev.Phase == PhaseSpawn {
			mu.Lock()
			dead["h4"] = true
			mu.Unlock()
			jr.get().CrashHost("h4")
		}
	}
	gated := &stepGate{App: app, at: 2, hook: func() {
		if err := jr.get().Propose(hosts("h", 4)); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{
		Universe: u, App: gated, InitialHosts: hosts("h", 3), Events: metrics.On(obs),
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v (resize must abort, not wedge or fail the job)", err)
	}
	checkResult(t, result, app.size, app.steps)
	if w := j.World(); w != 3 {
		t.Fatalf("world after mid-expand crash = %d, want 3", w)
	}
	if committed, aborted := j.Resizes(); committed != 0 || aborted != 1 {
		t.Fatalf("resizes = %d/%d, want 0 committed / 1 aborted", committed, aborted)
	}
}

func TestCrashVictimMidShrinkCommits(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 48, steps: 10}
	log := &eventLog{}

	var jr jref
	// Kill the victim after the drain: its shard is already at the root,
	// so the shrink must still commit.
	obs := func(ev Event) {
		log.observe(ev)
		if ev.Phase == PhaseReshape {
			jr.get().CrashHost("h3")
		}
	}
	gated := &stepGate{App: app, at: 2, hook: func() {
		if err := jr.get().Propose([]string{"h1", "h2"}); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{
		Universe: u, App: gated, InitialHosts: hosts("h", 3), Events: metrics.On(obs),
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v (victim died after drain; shrink must commit)", err)
	}
	checkResult(t, result, app.size, app.steps)
	if committed, aborted := j.Resizes(); committed != 1 || aborted != 0 {
		t.Fatalf("resizes = %d/%d, want 1 committed / 0 aborted", committed, aborted)
	}
	if w := j.World(); w != 2 {
		t.Fatalf("world = %d, want 2", w)
	}
}

func TestCrashRankBeforeDrainFailsJob(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	// A long-running app whose non-root ranks would keep computing; the
	// crash lands outside any resize, so the next collective dies.
	app := &countApp{size: 48, steps: 1000}
	var jr jref
	gated := &stepGate{App: app, at: 3, hook: func() {
		jr.get().CrashHost("h2")
	}}
	j, err := Start(Options{Universe: u, App: gated, InitialHosts: hosts("h", 3)})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	if _, err := j.Wait(); err == nil {
		t.Fatal("job survived losing a rank with no resize in flight")
	}
}

func TestRootHostCrashFailsFast(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 48, steps: 1000}
	var jr jref
	gated := &stepGate{App: app, at: 3, hook: func() {
		jr.get().CrashHost("h1")
	}}
	j, err := Start(Options{Universe: u, App: gated, InitialHosts: hosts("h", 3)})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	if _, err := j.Wait(); err == nil || err == ErrStopped {
		t.Fatalf("Wait = %v, want root-crash error", err)
	}
}

func TestStop(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 48, steps: 1000}
	var jr jref
	gated := &stepGate{App: app, at: 5, hook: func() { jr.get().Stop() }}
	j, err := Start(Options{Universe: u, App: gated, InitialHosts: hosts("h", 3)})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	if _, err := j.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Wait = %v, want ErrStopped", err)
	}
}

func TestProposeValidation(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 8, steps: 2}
	j, err := Start(Options{Universe: u, App: app, InitialHosts: hosts("h", 2)})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := j.Propose([]string{"h1", "h1"}); err == nil {
		t.Error("duplicate host accepted")
	}
	if err := j.Propose([]string{"h1", ""}); err == nil {
		t.Error("empty host accepted")
	}
	if err := j.Propose([]string{"h2", "h3"}); err == nil {
		t.Error("proposal dropping the root host accepted")
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestStartValidation(t *testing.T) {
	u := mpi.NewUniverse(mpi.Options{})
	app := &countApp{size: 8, steps: 1}
	if _, err := Start(Options{App: app, InitialHosts: hosts("h", 2)}); err == nil {
		t.Error("Start without Universe accepted")
	}
	if _, err := Start(Options{Universe: u, InitialHosts: hosts("h", 2)}); err == nil {
		t.Error("Start without App accepted")
	}
	if _, err := Start(Options{Universe: u, App: app}); err == nil {
		t.Error("Start without InitialHosts accepted")
	}
	if _, err := Start(Options{Universe: u, App: app, InitialHosts: []string{"h1", "h1"}}); err == nil {
		t.Error("Start with duplicate hosts accepted")
	}
}

// TestSameSizeMigration: a resize that swaps hosts without changing the
// world size is the degenerate case subsuming plain migration.
func TestSameSizeMigration(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 48, steps: 10}
	var jr jref
	gated := &stepGate{App: app, at: 3, hook: func() {
		if err := jr.get().Propose([]string{"h1", "h5", "h6"}); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{Universe: u, App: gated, InitialHosts: hosts("h", 3)})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkResult(t, result, app.size, app.steps)
	if got := fmt.Sprint(j.Placement()); got != fmt.Sprint([]string{"h1", "h5", "h6"}) {
		t.Fatalf("placement = %s, want [h1 h5 h6]", got)
	}
	if w := j.World(); w != 3 {
		t.Fatalf("world = %d, want 3", w)
	}
}

// TestProposeNoChangeDropped: proposing the current placement (any order)
// is dropped at the poll-point without a resize.
func TestProposeNoChangeDropped(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &countApp{size: 24, steps: 8}
	var jr jref
	gated := &stepGate{App: app, at: 2, hook: func() {
		if err := jr.get().Propose([]string{"h1", "h3", "h2"}); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{Universe: u, App: gated, InitialHosts: hosts("h", 3)})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkResult(t, result, app.size, app.steps)
	if committed, aborted := j.Resizes(); committed != 0 || aborted != 0 {
		t.Fatalf("resizes = %d/%d, want none", committed, aborted)
	}
}

// TestDrainPollDefault exercises the virtual-time drain pacing: a slow
// non-root rank must not wedge the root's drain loop.
func TestDrainPollDefault(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	app := &slowApp{countApp: countApp{size: 24, steps: 6}, clock: clock, delay: 5 * time.Millisecond}
	var jr jref
	gated := &stepGate{App: app, at: 2, hook: func() {
		if err := jr.get().Propose(hosts("h", 4)); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{
		Universe: u, App: gated, InitialHosts: hosts("h", 2),
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkResult(t, result, app.size, app.steps)
}

// slowApp delays every non-root step so drains arrive staggered.
type slowApp struct {
	countApp
	clock vclock.Clock
	delay time.Duration
}

func (a *slowApp) Open(shard []byte) (Block, error) {
	blk, err := a.countApp.Open(shard)
	if err != nil {
		return nil, err
	}
	return &slowBlock{Block: blk, app: a}, nil
}

// slowBlock is a block of a slowApp.
type slowBlock struct {
	Block
	app *slowApp
}

func (b *slowBlock) Step(rc *Rank) error {
	if rc.Rank() != 0 {
		b.app.clock.Sleep(b.app.delay)
	}
	return b.Block.Step(rc)
}

// tallyApp counts a countApp's opens, and its encodes by the step boundary
// they happen at.
type tallyApp struct {
	countApp
	mu      sync.Mutex
	opens   int
	encodes map[int]int // step boundary -> encodes there
}

func (a *tallyApp) Open(shard []byte) (Block, error) {
	blk, err := a.countApp.Open(shard)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.opens++
	a.mu.Unlock()
	return &tallyBlock{Block: blk, app: a, boundary: -1}, nil
}

// tallyBlock is a block of a tallyApp; boundary is the step boundary after
// its last step (-1 before its first).
type tallyBlock struct {
	Block
	app      *tallyApp
	boundary int
}

func (b *tallyBlock) Step(rc *Rank) error {
	b.boundary = rc.Step() + 1
	return b.Block.Step(rc)
}

func (b *tallyBlock) Encode() ([]byte, error) {
	b.app.mu.Lock()
	b.app.encodes[b.boundary]++
	b.app.mu.Unlock()
	return b.Block.Encode()
}

// TestEngineEncodesOnlyAtDrains runs TestSpawnFailureAborts's aborted 3->4
// resize at step 2, then a committed one at step 5. A rank decodes a block
// from each shard it receives and keeps it between steps: an encode happens
// only where its shard leaves the rank, at a drain.
func TestEngineEncodesOnlyAtDrains(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	var mu sync.Mutex
	dead := map[string]bool{"h9": true}
	u := mpi.NewUniverse(mpi.Options{Clock: clock, HostCheck: func(h string) error {
		mu.Lock()
		defer mu.Unlock()
		if dead[h] {
			return errors.New("host is down")
		}
		return nil
	}})
	app := &tallyApp{countApp: countApp{size: 48, steps: 10}, encodes: map[int]int{}}

	var jr jref
	abort := &stepGate{App: app, at: 2, hook: func() {
		if err := jr.get().Propose([]string{"h1", "h2", "h3", "h9"}); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	commit := &stepGate{App: abort, at: 5, hook: func() {
		if err := jr.get().Propose(hosts("h", 4)); err != nil {
			t.Errorf("Propose: %v", err)
		}
	}}
	j, err := Start(Options{Universe: u, App: commit, InitialHosts: hosts("h", 3)})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	jr.set(j)
	result, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkResult(t, result, app.size, app.steps)
	if committed, aborted := j.Resizes(); committed != 1 || aborted != 1 {
		t.Fatalf("resizes = %d/%d, want 1 committed / 1 aborted", committed, aborted)
	}
	app.mu.Lock()
	defer app.mu.Unlock()
	// Shards received: the three scattered at the start, then at the
	// commit the root's own new shard, two survivors' state pushes and the
	// child's first state. The aborted ranks resume the blocks they had.
	if app.opens != 3+4 {
		t.Errorf("opens = %d, want 7 (one per shard received)", app.opens)
	}
	// Drains: the aborted resize's and the committed one's (three ranks
	// each, at the poll-point after the step that proposed them), and the
	// final drain of the four-rank world.
	want := map[int]int{3: 3, 6: 3, 10: 4}
	if fmt.Sprint(app.encodes) != fmt.Sprint(want) {
		t.Errorf("encodes by step boundary = %v, want %v (drains only)", app.encodes, want)
	}
}
