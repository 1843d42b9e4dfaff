package hpcm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoresched/internal/livemig"
	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

const (
	livePages     = 16
	livePageWords = 8 // 64-byte pages
)

// pagedMain is a staged computation over a single paged region: every stage
// rewrites the first word of dirtyPages pages with stage-distinct values.
// gate, when non-nil, is consumed once per stage; otherwise each stage
// advances the virtual clock so precopy rounds have time to ship.
func pagedMain(stages, dirtyPages int, gate *turnstile, sum *float64, mu *sync.Mutex) Main {
	return func(ctx *Context) error {
		var next int
		pages, err := livemig.NewPages(livePages*livePageWords*8, livePageWords*8)
		if err != nil {
			return err
		}
		if err := ctx.Register("next", &next); err != nil {
			return err
		}
		if err := ctx.RegisterPages("grid", pages); err != nil {
			return err
		}
		if ctx.Resumed() {
			if err := ctx.Await("grid"); err != nil {
				return err
			}
		} else {
			// Distinctive initial values: they ship only in precopy round 1
			// (or the classic image), so the final checksum proves the whole
			// region moved, not just the dirtied pages.
			for w := 0; w < livePages*livePageWords; w++ {
				pages.SetFloat64(w, float64(w))
			}
		}
		for next < stages {
			if gate != nil {
				gate.pass()
			} else {
				ctx.Sleep(10 * time.Millisecond)
			}
			for i := 0; i < dirtyPages; i++ {
				pages.SetFloat64(i*livePageWords, float64((next+1)*1000+i))
			}
			next++
			if err := ctx.PollPoint(fmt.Sprintf("s-%d", next)); err != nil {
				return err
			}
		}
		var total float64
		for w := 0; w < livePages*livePageWords; w++ {
			total += pages.Float64(w)
		}
		mu.Lock()
		*sum = total
		mu.Unlock()
		return nil
	}
}

// expectedPagedSum is pagedMain's final checksum after all stages.
func expectedPagedSum(stages, dirtyPages int) float64 {
	total := 0.0
	for w := 0; w < livePages*livePageWords; w++ {
		total += float64(w)
	}
	for i := 0; i < dirtyPages; i++ {
		total += float64(stages*1000+i) - float64(i*livePageWords)
	}
	return total
}

func newLiveMW(t *testing.T, transport mpi.Transport, live *livemig.Config, obs func(MigrationEvent)) (*Middleware, vclock.Clock) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	if st, ok := transport.(*latchTransport); ok && st.inner == nil {
		st.inner = modelTransport{clock, time.Millisecond, 1e6}
		st.clock = clock
	}
	if transport == nil {
		transport = modelTransport{clock, time.Millisecond, 1e6}
	}
	u := mpi.NewUniverse(mpi.Options{
		Clock:        clock,
		Transport:    transport,
		SpawnLatency: 10 * time.Millisecond,
	})
	mw, err := New(Options{Universe: u, Hosts: &testBinder{}, Live: live, Events: metrics.On(obs)})
	if err != nil {
		t.Fatal(err)
	}
	return mw, clock
}

// phaseLog collects migration events for sequence assertions.
type phaseLog struct {
	mu     sync.Mutex
	events []MigrationEvent
}

func (l *phaseLog) observe(ev MigrationEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *phaseLog) phases() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.events))
	for i, ev := range l.events {
		out[i] = ev.Phase
	}
	return out
}

func (l *phaseLog) find(phase string) (MigrationEvent, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if ev.Phase == phase {
			return ev, true
		}
	}
	return MigrationEvent{}, false
}

func TestLiveMigrationFreezesAndPreservesRegion(t *testing.T) {
	const stages, dirty = 400, 2
	log := &phaseLog{}
	mw, _ := newLiveMW(t, nil, &livemig.Config{}, log.observe)
	var sum float64
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", pagedMain(stages, dirty, nil, &sum, &mu))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 || p.Host() != "ws2" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
	mu.Lock()
	got := sum
	mu.Unlock()
	if want := expectedPagedSum(stages, dirty); got != want {
		t.Fatalf("checksum = %v, want %v (region corrupted in transit)", got, want)
	}
	rec := p.Records()[0]
	if rec.FreezeAt.IsZero() {
		t.Fatalf("live migration recorded no freeze: %+v", rec)
	}
	if rec.PrecopyRounds < 1 {
		t.Fatalf("precopy rounds = %d", rec.PrecopyRounds)
	}
	if rec.Downtime() <= 0 {
		t.Fatalf("downtime = %v", rec.Downtime())
	}
	// The freeze window must be strictly smaller than the full
	// command-to-resume span: the precopy rounds happened outside it.
	if full := rec.ResumeAt.Sub(rec.CommandAt); rec.Downtime() >= full {
		t.Fatalf("downtime %v not below full span %v", rec.Downtime(), full)
	}
	if rec.FreezeAt.Before(rec.InitDone) || rec.ResumeAt.Before(rec.FreezeAt) {
		t.Fatalf("phases out of order: %+v", rec)
	}
	ev, ok := log.find(PhasePrecopy)
	if !ok || ev.Round != 1 {
		t.Fatalf("first precopy event = %+v (ok=%v)", ev, ok)
	}
	for _, phase := range []string{PhaseStart, PhaseInit, PhaseFreeze, PhaseResume, PhaseRestore} {
		if _, ok := log.find(phase); !ok {
			t.Fatalf("phase %q never observed: %v", phase, log.phases())
		}
	}
	if _, ok := log.find(PhaseAborted); ok {
		t.Fatalf("unexpected abort: %v", log.phases())
	}
}

// latchTransport holds the first cross-host send until released — pinning
// precopy round 1 on the wire while the application keeps dirtying pages —
// and closes held when the hold begins, so a test knows the round's
// snapshot watermark is already taken. rearm holds the next send the same
// way.
type latchTransport struct {
	inner mpi.Transport
	clock vclock.Clock

	mu      sync.Mutex
	armed   bool
	held    chan struct{}
	release chan struct{}
}

func newLatch() *latchTransport {
	return &latchTransport{armed: true, held: make(chan struct{}), release: make(chan struct{})}
}

// awaitDrained fails the test unless every MPI process the middleware ever
// launched — a cancelled destination's initialized process included — exits.
func awaitDrained(t *testing.T, mw *Middleware) {
	t.Helper()
	mw.universe.Wait()
}

// rearm holds the next send behind fresh held and release channels.
func (t *latchTransport) rearm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.armed = true
	t.held, t.release = make(chan struct{}), make(chan struct{})
}

// channels returns the current hold's held and release channels.
func (t *latchTransport) channels() (held, release chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held, t.release
}

func (t *latchTransport) Send(from, to string, bytes int64) error {
	t.mu.Lock()
	hold := t.armed
	if hold {
		t.armed = false
		close(t.held)
	}
	release := t.release
	t.mu.Unlock()
	if hold {
		vclock.Await(t.clock, release)
	}
	return t.inner.Send(from, to, bytes)
}

func TestLiveFallbackRunsClassicMigration(t *testing.T) { runLiveFallback(t, false) }

// TestLiveFallbackAfterConsumingPreInit: the non-converging attempt took the
// destination's pre-initialized process, so the cancel must release that
// process (it speaks the precopy prefix like any initialized process) and
// the fallback must create its own destination.
func TestLiveFallbackAfterConsumingPreInit(t *testing.T) { runLiveFallback(t, true) }

func runLiveFallback(t *testing.T, preinit bool) {
	// Each stage dirties 12 of the 16 pages, more than the half of the
	// region a freeze window may carry, so a round that ships them while
	// the next stage dirties them again has stalled.
	const stages, dirty = 6, 12
	latch := newLatch()
	log := &phaseLog{}
	var mw *Middleware
	// Once round 1 is on the wire, hold round 2 as well; the log sees the
	// round after the latch is rearmed.
	observe := func(ev MigrationEvent) {
		if ev.Phase == PhasePrecopy && ev.Round == 1 {
			latch.rearm()
		}
		log.observe(ev)
	}
	awaitRound := func(n int) {
		t.Helper()
		for deadline := mw.clock.Now().Add(10 * time.Second); ; mw.clock.Sleep(time.Millisecond) {
			rounds := 0
			for _, phase := range log.phases() {
				if phase == PhasePrecopy {
					rounds++
				}
			}
			if rounds >= n {
				return
			}
			if mw.clock.Now().After(deadline) {
				t.Fatalf("precopy round %d never reported", n)
			}
		}
	}
	mw, _ = newLiveMW(t, latch, &livemig.Config{}, observe)
	gate := newTurnstile(mw.clock)
	var sum float64
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", pagedMain(stages, dirty, gate, &sum, &mu))
	if err != nil {
		t.Fatal(err)
	}
	if preinit {
		if err := p.PreInit("ws2"); err != nil {
			t.Fatal(err)
		}
	}
	p.Signal(Command{DestHost: "ws2"})
	gate.open()                        // stage 1: poll consumes the command, precopy starts
	vclock.Await(mw.clock, latch.held) // round 1 snapshotted and pinned on the wire
	gate.open()                        // stage 2: dirties pages behind round 1's watermark
	gate.open()                        // stage 3: more dirtying; round 1 still on the wire
	close(latch.release)
	// Round 1 lands with a 12-page residual and the driver continues; round
	// 2 takes its snapshot and is held.
	awaitRound(1)
	held, release := latch.channels()
	vclock.Await(mw.clock, held)
	gate.open() // stage 4: dirties the same 12 pages behind round 2
	close(release)
	// Round 2 lands with the same residual: stalled, and too large to
	// freeze. Wait for the driver's verdict before feeding the stage whose
	// poll-point resolves it.
	awaitRound(2)
	mw.clock.Sleep(10 * time.Millisecond) // let the driver publish its decision
	gate.open()                           // stage 5: fallback resolves here
	gate.open()                           // stage 6
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 || p.Host() != "ws2" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
	mu.Lock()
	got := sum
	mu.Unlock()
	if want := expectedPagedSum(stages, dirty); got != want {
		t.Fatalf("checksum = %v, want %v", got, want)
	}
	rec := p.Records()[0]
	if !rec.FreezeAt.IsZero() || rec.PrecopyRounds != 0 {
		t.Fatalf("fallback produced a live record: %+v", rec)
	}
	ab, ok := log.find(PhaseAborted)
	if !ok || ab.Err == nil || !strings.Contains(ab.Err.Error(), "did not converge") {
		t.Fatalf("aborted event = %+v (ok=%v)", ab, ok)
	}
	if _, ok := log.find(PhaseResume); !ok {
		t.Fatalf("classic migration never resumed: %v", log.phases())
	}
	if len(p.PreInited()) != 0 {
		t.Fatalf("pre-initialized process not consumed: %v", p.PreInited())
	}
	awaitDrained(t, mw)
}

// TestEndingMidPrecopyReleasesTheDestination: a process that runs out of
// work, or is evicted, while round 1 is still on the wire leaves through
// cancelLive with the rounds still copying — the precopy goroutine must see
// the flag, tell the destination to drop the partial region, and let Wait
// return.
func TestEndingMidPrecopyReleasesTheDestination(t *testing.T) {
	for _, tc := range []struct {
		name  string
		evict bool
		want  error
	}{{"finished", false, nil}, {"evicted", true, ErrPreempted}} {
		t.Run(tc.name, func(t *testing.T) {
			latch := newLatch()
			log := &phaseLog{}
			mw, _ := newLiveMW(t, latch, &livemig.Config{}, log.observe)
			gate := newTurnstile(mw.clock)
			var sum float64
			var mu sync.Mutex
			p, err := mw.Start("app", "ws1", pagedMain(2, 2, gate, &sum, &mu))
			if err != nil {
				t.Fatal(err)
			}
			p.Signal(Command{DestHost: "ws2"})
			gate.open()                        // stage 1: poll consumes the command, precopy starts
			vclock.Await(mw.clock, latch.held) // round 1 snapshotted and pinned on the wire
			if tc.evict {
				p.Evict()
			}
			gate.open()                      // stage 2: the last one, or the eviction's poll-point
			vclock.Await(mw.clock, p.Done()) // the process is over; its round is still on the wire
			close(latch.release)
			if err := p.Wait(); !errors.Is(err, tc.want) {
				t.Fatalf("Wait = %v, want %v", err, tc.want)
			}
			awaitDrained(t, mw)
			if _, ok := log.find(PhaseResume); ok || p.Migrations() != 0 || p.Host() != "ws1" {
				t.Fatalf("a cancelled attempt migrated the process to %s: %v", p.Host(), log.phases())
			}
		})
	}
}

func TestLiveWithoutPagedRegionMigratesClassically(t *testing.T) {
	log := &phaseLog{}
	mw, _ := newLiveMW(t, nil, &livemig.Config{}, log.observe)
	gate := newTurnstile(mw.clock)
	var got []int
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(3, gate, &got, &mu))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	for i := 0; i < 3; i++ {
		gate.open()
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 || p.Host() != "ws2" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
	for _, phase := range []string{PhasePrecopy, PhaseFreeze} {
		if _, ok := log.find(phase); ok {
			t.Fatalf("live phase %q for a process with no paged region: %v", phase, log.phases())
		}
	}
}

func TestPagedRegionMigratesClassicallyWithoutLiveOption(t *testing.T) {
	const stages, dirty = 6, 2
	log := &phaseLog{}
	mw, _ := newLiveMW(t, nil, nil, log.observe) // no Options.Live
	gate := newTurnstile(mw.clock)
	var sum float64
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", pagedMain(stages, dirty, gate, &sum, &mu))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	for i := 0; i < stages; i++ {
		gate.open()
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 || p.Host() != "ws2" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
	mu.Lock()
	got := sum
	mu.Unlock()
	if want := expectedPagedSum(stages, dirty); got != want {
		t.Fatalf("checksum = %v, want %v (flat-image transfer broken)", got, want)
	}
	if _, ok := log.find(PhasePrecopy); ok {
		t.Fatalf("precopy ran without Options.Live: %v", log.phases())
	}
}

// cuttableTransport fails every send once cut — the source host dropping
// off the network.
type cuttableTransport struct {
	inner mpi.Transport
	cut   atomic.Bool
}

func (t *cuttableTransport) Send(from, to string, bytes int64) error {
	if t.cut.Load() {
		return errors.New("network cut: source host lost")
	}
	return t.inner.Send(from, to, bytes)
}

// TestSourceLossMidLazyStreamAbortsDestinationCleanly kills the source's
// network right after the commit point, mid-tagLazy stream: the committed
// destination must not wedge — its Await unblocks with the post-commit
// failure and the process settles with a Committed MigrationFailure.
func TestSourceLossMidLazyStreamAbortsDestinationCleanly(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	cut := &cuttableTransport{inner: modelTransport{clock, time.Millisecond, 1e6}}
	u := mpi.NewUniverse(mpi.Options{Clock: clock, Transport: cut, SpawnLatency: 10 * time.Millisecond})
	log := &phaseLog{}
	mw, err := New(Options{
		Universe: u,
		Hosts:    &testBinder{},
		Events: metrics.On(func(ev MigrationEvent) {
			if ev.Phase == PhaseResume {
				// The destination has taken over; the lazy stream is next.
				cut.cut.Store(true)
			}
			log.observe(ev)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	main := func(ctx *Context) error {
		bulk := make([]byte, 1<<20)
		if err := ctx.RegisterLazy("bulk", &bulk); err != nil {
			return err
		}
		if !ctx.Resumed() {
			if err := ctx.PollPoint("go"); err != nil {
				return err
			}
			return errors.New("expected migration at the first poll point")
		}
		return ctx.Await("bulk")
	}
	p, err := mw.Start("app", "ws1", main)
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	err = p.Wait()
	var mf *MigrationFailure
	if !errors.As(err, &mf) {
		t.Fatalf("Wait = %v, want *MigrationFailure", err)
	}
	if !mf.Committed || mf.Phase != PhaseRestore {
		t.Fatalf("failure = %+v, want committed post-commit failure", mf)
	}
	if !strings.Contains(err.Error(), "lazy state transfer") {
		t.Fatalf("failure cause = %v, want lazy state transfer", err)
	}
	// Committed: the migration counts even though restoration broke.
	if p.Migrations() != 1 {
		t.Fatalf("migrations = %d", p.Migrations())
	}
	if _, ok := log.find(PhaseFailed); !ok {
		t.Fatalf("PhaseFailed never observed: %v", log.phases())
	}
	select {
	case <-p.Done():
	default:
		t.Fatal("process did not settle")
	}
}

// TestLiveMigrationConnectsToPreInit: the initialized process learns from
// its first message whether pages precede the execution state, so a live
// migration uses a waiting pre-initialized process like a classic one does.
// The spawn latency is huge: paying it would push InitDone >= 2s out.
func TestLiveMigrationConnectsToPreInit(t *testing.T) {
	const stages, dirty = 400, 2
	mw, _ := newMW(t, &testBinder{}, 2*time.Second)
	mw.live = &livemig.Config{}
	var sum float64
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", pagedMain(stages, dirty, nil, &sum, &mu))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PreInit("ws2"); err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 || p.Host() != "ws2" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
	rec := p.Records()[0]
	if rec.FreezeAt.IsZero() || rec.PrecopyRounds < 1 {
		t.Fatalf("not a live migration: %+v", rec)
	}
	if init := rec.InitDone.Sub(rec.PollPointAt); init >= 1500*time.Millisecond {
		t.Fatalf("init took %v despite pre-initialization (spawn latency paid)", init)
	}
	if len(p.PreInited()) != 0 {
		t.Fatal("pre-initialized process not consumed")
	}
	mu.Lock()
	got := sum
	mu.Unlock()
	if want := expectedPagedSum(stages, dirty); got != want {
		t.Fatalf("checksum = %v, want %v", got, want)
	}
}

// TestResumeRefusalAbortsInThePathsOwnPhase: the destination refusing the
// resume handshake (Attach fails on "bad*" hosts) is the last pre-commit
// failure of the one handover; the phase it reports is what tells the two
// paths apart — init for stop-and-copy, freeze after precopy.
func TestResumeRefusalAbortsInThePathsOwnPhase(t *testing.T) {
	for _, tc := range []struct {
		name  string
		live  *livemig.Config
		phase string
	}{
		{"stop-and-copy", nil, PhaseInit},
		{"live", &livemig.Config{}, PhaseFreeze},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &phaseLog{}
			mw, _ := newLiveMW(t, nil, tc.live, log.observe)
			var sum float64
			var mu sync.Mutex
			p, err := mw.Start("app", "ws1", pagedMain(400, 2, nil, &sum, &mu))
			if err != nil {
				t.Fatal(err)
			}
			p.Signal(Command{DestHost: "badhost"})
			var mf *MigrationFailure
			if err := p.Wait(); !errors.As(err, &mf) {
				t.Fatalf("Wait = %v, want *MigrationFailure", err)
			}
			if mf.Committed || mf.Phase != tc.phase || !strings.Contains(mf.Error(), "failed to initialize") {
				t.Fatalf("failure = %+v", mf)
			}
			ab, ok := log.find(PhaseAborted)
			var evMF *MigrationFailure
			if !ok || ab.Round != 0 || !errors.As(ab.Err, &evMF) || evMF != mf {
				t.Fatalf("aborted event = %+v (ok=%v), want the returned failure", ab, ok)
			}
			if _, ok := log.find(PhaseResume); ok {
				t.Fatalf("refused migration resumed: %v", log.phases())
			}
			if p.Migrations() != 0 {
				t.Fatalf("migrations = %d", p.Migrations())
			}
		})
	}
}
