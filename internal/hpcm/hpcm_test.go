package hpcm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// testBinder records attach/exit so tests can verify process-table moves.
type testBinder struct {
	mu      sync.Mutex
	nextPID int
	events  []string
}

type testProc struct {
	b       *testBinder
	pid     int
	host    string
	started time.Time
}

func (b *testBinder) Attach(host, name string, mem int64) (HostProc, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if strings.HasPrefix(host, "bad") {
		return nil, fmt.Errorf("no such host %q", host)
	}
	b.nextPID++
	b.events = append(b.events, "attach:"+host)
	return &testProc{b: b, pid: b.nextPID, host: host, started: vclock.Epoch}, nil
}

func (b *testBinder) log() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.events...)
}

func (p *testProc) PID() int              { return p.pid }
func (p *testProc) Started() time.Time    { return p.started }
func (p *testProc) Compute(float64) error { return nil }
func (p *testProc) SetMemory(int64)       {}
func (p *testProc) Exit() {
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	p.b.events = append(p.b.events, "exit:"+p.host)
}

// modelTransport charges a fixed latency plus bytes/bandwidth (bandwidth in
// bytes per second) to the clock, without contention.
type modelTransport struct {
	clock     vclock.Clock
	latency   time.Duration
	bandwidth float64
}

func (t modelTransport) Send(fromHost, toHost string, bytes int64) error {
	if fromHost == toHost {
		return nil
	}
	d := t.latency
	if t.bandwidth > 0 {
		d += time.Duration(float64(bytes) / t.bandwidth * float64(time.Second))
	}
	if d > 0 {
		t.clock.Sleep(d)
	}
	return nil
}

// turnstile hands a computation one stage at a time: open blocks until a
// pass took it, the rendezvous of an unbuffered channel, and close lets
// every pass through; both sides wait where an Auto clock sees them.
type turnstile struct {
	mu            sync.Mutex
	cond          *vclock.Cond
	opened, taken int
	closed        bool
}

func newTurnstile(clock vclock.Clock) *turnstile {
	g := &turnstile{}
	g.cond = vclock.NewCond(clock, &g.mu)
	return g
}

func (g *turnstile) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.opened++
	g.cond.Broadcast()
	for g.taken < g.opened && !g.closed {
		g.cond.Wait()
	}
}

func (g *turnstile) pass() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.taken == g.opened && !g.closed {
		g.cond.Wait()
	}
	g.taken++
	g.cond.Broadcast()
}

func (g *turnstile) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	g.cond.Broadcast()
}

func newMW(t *testing.T, binder HostBinder, spawnLatency time.Duration) (*Middleware, vclock.Clock) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{
		Clock:        clock,
		Transport:    modelTransport{clock, time.Millisecond, 100e6},
		SpawnLatency: spawnLatency,
	})
	mw, err := New(Options{Universe: u, Hosts: binder})
	if err != nil {
		t.Fatal(err)
	}
	return mw, clock
}

// stagedMain builds a 5-stage migratable computation that appends stage
// numbers into a lazily transferred slice. gate, when non-nil, is consumed
// once per stage so tests can control where poll-points fire.
func stagedMain(stages int, gate *turnstile, sink *[]int, sinkMu *sync.Mutex) Main {
	return func(ctx *Context) error {
		var next int
		var acc []int
		if err := ctx.Register("next", &next); err != nil {
			return err
		}
		if err := ctx.RegisterLazy("acc", &acc); err != nil {
			return err
		}
		if ctx.Resumed() {
			if err := ctx.Await("acc"); err != nil {
				return err
			}
		}
		for next < stages {
			if gate != nil {
				gate.pass()
			}
			acc = append(acc, next)
			// Advance the persistent counter BEFORE the poll-point so a
			// resumed incarnation does not redo the completed stage — the
			// same discipline HPCM's precompiler enforces by placing state
			// updates ahead of poll-points.
			next++
			if err := ctx.PollPoint(fmt.Sprintf("stage-%d", next)); err != nil {
				return err
			}
		}
		sinkMu.Lock()
		*sink = append([]int(nil), acc...)
		sinkMu.Unlock()
		return nil
	}
}

func TestRunsToCompletionWithoutMigration(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	var got []int
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(5, nil, &got, &mu))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Fatalf("acc = %v", got)
	}
	if p.Migrations() != 0 || p.Host() != "ws1" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
}

func TestMigrationPreservesStateAndCompletes(t *testing.T) {
	binder := &testBinder{}
	mw, _ := newMW(t, binder, 10*time.Millisecond)
	gate := newTurnstile(mw.clock)
	var got []int
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(5, gate, &got, &mu))
	if err != nil {
		t.Fatal(err)
	}
	// Let two stages run on ws1.
	gate.open()
	gate.open()
	// Order migration before stage 3's poll-point.
	p.Signal(Command{DestHost: "ws2"})
	for i := 0; i < 3; i++ {
		gate.open()
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	acc := got
	mu.Unlock()
	if len(acc) != 5 {
		t.Fatalf("acc = %v", acc)
	}
	for i, v := range acc {
		if v != i {
			t.Fatalf("acc = %v", acc)
		}
	}
	if p.Host() != "ws2" {
		t.Fatalf("host = %s, want ws2", p.Host())
	}
	if p.Migrations() != 1 {
		t.Fatalf("migrations = %d", p.Migrations())
	}
	recs := p.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %+v", recs)
	}
	r := recs[0]
	// The exact poll-point depends on when the signal lands relative to the
	// running stage; it must be one of the post-signal stages.
	if r.From != "ws1" || r.To != "ws2" || !strings.HasPrefix(r.Label, "stage-") {
		t.Fatalf("record = %+v", r)
	}
	// Phase ordering of Section 5.2.
	if r.PollPointAt.Before(r.CommandAt) || r.InitDone.Before(r.PollPointAt) ||
		r.ResumeAt.Before(r.InitDone) || r.RestoreDone.Before(r.ResumeAt) {
		t.Fatalf("phases out of order: %+v", r)
	}
	if r.MigrationTime() <= 0 || r.Downtime() <= 0 || r.Downtime() > r.MigrationTime() {
		t.Fatalf("durations: total=%v downtime=%v", r.MigrationTime(), r.Downtime())
	}
	if r.EagerBytes <= 0 || r.LazyBytes <= 0 {
		t.Fatalf("state sizes: %+v", r)
	}
	// Process table: attached on ws1 then ws2; both hosts eventually left
	// (ws1 at migration cleanup, ws2 at completion — their order races).
	log := binder.log()
	if len(log) != 4 || log[0] != "attach:ws1" || log[1] != "attach:ws2" {
		t.Fatalf("binder log = %v", log)
	}
	exits := map[string]bool{log[2]: true, log[3]: true}
	if !exits["exit:ws1"] || !exits["exit:ws2"] {
		t.Fatalf("binder log = %v", log)
	}
}

func TestChainedMigrations(t *testing.T) {
	const stages = 8
	mw, _ := newMW(t, nil, 0)
	gate := newTurnstile(mw.clock)
	var got []int
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(stages, gate, &got, &mu))
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	send := func() {
		if sent >= stages {
			t.Fatal("workload exhausted before both migrations happened")
		}
		gate.open()
		sent++
	}
	// feed runs stages until the process has completed n migrations; a
	// signal becomes visible at the first poll-point that follows it, so at
	// most a couple of stages are consumed per migration.
	feed := func(n int) {
		for p.Migrations() < n {
			send()
		}
	}
	send()
	p.Signal(Command{DestHost: "ws2"})
	feed(1)
	p.Signal(Command{DestHost: "ws3"})
	feed(2)
	for sent < stages {
		gate.open()
		sent++
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Host() != "ws3" || p.Migrations() != 2 {
		t.Fatalf("host=%s migrations=%d", p.Host(), p.Migrations())
	}
	recs := p.Records()
	if recs[0].From != "ws1" || recs[0].To != "ws2" || recs[1].From != "ws2" || recs[1].To != "ws3" {
		t.Fatalf("records = %+v", recs)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != stages {
		t.Fatalf("acc = %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("acc = %v (stage repeated or lost across migrations)", got)
		}
	}
}

func TestMigrationFailureContinuesLocally(t *testing.T) {
	binder := &testBinder{}
	mw, _ := newMW(t, binder, 0)
	gate := newTurnstile(mw.clock)
	var got []int
	var mu sync.Mutex
	var pollErr error
	var pollMu sync.Mutex
	main := func(ctx *Context) error {
		var next int
		if err := ctx.Register("next", &next); err != nil {
			return err
		}
		for ; next < 3; next++ {
			gate.pass()
			if err := ctx.PollPoint("p"); err != nil {
				if errors.Is(err, ErrMigrated) {
					return err
				}
				pollMu.Lock()
				pollErr = err
				pollMu.Unlock()
			}
		}
		mu.Lock()
		got = append(got, next)
		mu.Unlock()
		return nil
	}
	p, err := mw.Start("app", "ws1", main)
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "bad-host"})
	gate.open()
	gate.open()
	gate.open()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	pollMu.Lock()
	defer pollMu.Unlock()
	if pollErr == nil {
		t.Fatal("failed migration produced no error")
	}
	if p.Host() != "ws1" || p.Migrations() != 0 {
		t.Fatalf("host=%s migrations=%d after failed migration", p.Host(), p.Migrations())
	}
}

func TestApplicationErrorPropagates(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	boom := errors.New("boom")
	p, err := mw.Start("app", "ws1", func(ctx *Context) error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	select {
	case <-p.Done():
	default:
		t.Fatal("Done not closed")
	}
}

func TestRegisterValidation(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	p, err := mw.Start("app", "ws1", func(ctx *Context) error {
		var a int
		if err := ctx.Register("a", &a); err != nil {
			return err
		}
		if err := ctx.Register("a", &a); err == nil {
			return errors.New("duplicate register accepted")
		}
		if err := ctx.Register("nil", nil); err == nil {
			return errors.New("nil pointer accepted")
		}
		if _, err := ctx.RegisterPages("pages", 0, 64); err == nil {
			return errors.New("empty paged region accepted")
		}
		if err := ctx.Await("ghost"); err == nil {
			return errors.New("await of unregistered state accepted")
		}
		// Await on a fresh (non-resumed) lazy var returns immediately.
		var bulk []byte
		if err := ctx.RegisterLazy("bulk", &bulk); err != nil {
			return err
		}
		return ctx.Await("bulk")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestContextAccessors(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	p, err := mw.Start("myapp", "ws7", func(ctx *Context) error {
		if ctx.Name() != "myapp" {
			return fmt.Errorf("name = %q", ctx.Name())
		}
		if ctx.Host() != "ws7" {
			return fmt.Errorf("host = %q", ctx.Host())
		}
		if ctx.Resumed() {
			return errors.New("fresh incarnation claims resume")
		}
		if ctx.Clock() == nil {
			return errors.New("nil clock")
		}
		ctx.SetMemory(1 << 20)
		return ctx.Compute(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.PID() != 0 && p.Started().IsZero() {
		t.Fatal("inconsistent pid/start")
	}
}

func TestSignalReplacesPending(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	gate := newTurnstile(mw.clock)
	var got []int
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(2, gate, &got, &mu))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "wsOld"})
	p.Signal(Command{DestHost: "ws2"}) // replaces the stale order
	gate.open()
	gate.open()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Host() != "ws2" {
		t.Fatalf("host = %s, want ws2 (stale command should be dropped)", p.Host())
	}
}

func TestLazyRestorationOverlapsExecution(t *testing.T) {
	// A large lazy blob with a tight model bandwidth: the resumed
	// incarnation must start before restoration finishes.
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{
		Clock:     clock,
		Transport: modelTransport{clock: clock, bandwidth: 1e6}, // 1 MB/s virtual
	})
	mw, err := New(Options{Universe: u, ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var resumedAt, restoredAt time.Time
	var mu sync.Mutex
	main := func(ctx *Context) error {
		bulk := make([]byte, 2<<20) // ~2 s of virtual transfer
		if err := ctx.RegisterLazy("bulk", &bulk); err != nil {
			return err
		}
		if !ctx.Resumed() {
			if err := ctx.PollPoint("go"); err != nil {
				return err
			}
			return errors.New("expected migration at first poll point")
		}
		mu.Lock()
		resumedAt = clock.Now()
		mu.Unlock()
		if err := ctx.Await("bulk"); err != nil {
			return err
		}
		mu.Lock()
		restoredAt = clock.Now()
		mu.Unlock()
		if len(bulk) != 2<<20 {
			return fmt.Errorf("bulk len = %d", len(bulk))
		}
		return nil
	}
	p, err := mw.Start("app", "ws1", main)
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !resumedAt.Before(restoredAt) {
		t.Fatalf("no overlap: resumed %v, restored %v", resumedAt, restoredAt)
	}
	rec := p.Records()[0]
	if rec.RestoreDone.Before(rec.ResumeAt) {
		t.Fatalf("record says restore before resume: %+v", rec)
	}
	if gap := rec.RestoreDone.Sub(rec.ResumeAt); gap < 500*time.Millisecond {
		t.Fatalf("restore window %v too small for a 2 MB blob at 1 MB/s", gap)
	}
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without universe succeeded")
	}
	mw, err := New(Options{Universe: mpi.NewUniverse(mpi.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if mw.chunk != 1<<20 {
		t.Fatalf("default chunk = %d", mw.chunk)
	}
}
