package hpcm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// Wire tags of the state-transfer protocol on the parent/child
// intercommunicator. image.go specifies the messages and their order.
const (
	tagHeader   = 1 // the state image's header
	tagEager    = 2 // eager segments
	tagLazy     = 3 // lazy segment chunks
	tagResumed  = 4 // child -> parent: execution resumed (or why not)
	tagRestored = 5 // child -> parent: all lazy state restored (or why not)
)

// attempt is one migration in flight on the source, created at the
// poll-point that consumed the migrate command. A stop-and-copy migration
// hands over at that same poll-point. A live one (pages set) first ships
// its paged region in precopy rounds while the application computes, and
// hands over at a later poll-point — the same handover, whose image ends
// with the pages dirtied since the last round.
type attempt struct {
	proc  string
	sig   pendingCmd
	rec   Record
	inter *mpi.Comm // to the initialized process on the destination

	// The state frozen for the handover.
	img image

	// Precopy prefix (livemigrate.go); all zero for stop-and-copy.
	pagesName string
	pages     *livemig.Pages
	cancelled atomic.Bool  // asks the rounds to stop; whoever sees them stopped releases the destination
	done      vclock.Event // fires when the precopy goroutine finished
	res       livemig.Result
	err       error
}

func (att *attempt) event(phase string, round int, err error) MigrationEvent {
	return MigrationEvent{
		Proc: att.proc, From: att.rec.From, To: att.rec.To,
		Label: att.rec.Label, Phase: phase, Round: round, Err: err,
	}
}

// abort reports a failure before the commit point: the source still owns the
// process, and the incarnation gives up with a *MigrationFailure so the
// runtime can fall back to the last checkpoint and retry on a fresh host.
// The destination, if one was initialized, is killed: the state it waits
// for will never come.
func (m *Middleware) abort(att *attempt, phase string, round int, err error) error {
	if att.inter != nil {
		att.inter.KillRemote()
	}
	mf := &MigrationFailure{
		From: att.rec.From, To: att.rec.To, Label: att.rec.Label, Phase: phase, Err: err,
	}
	m.observe(att.event(PhaseAborted, round, mf))
	return mf
}

// migrate starts moving this incarnation to sig.cmd's destination. It runs
// at a poll-point on the source. On the middleware's live path with exactly
// one paged region registered it launches the precopy rounds and returns
// nil — the application keeps computing and a later poll-point (pollLive)
// hands over. Otherwise, and always for the stop-and-copy that follows a
// precopy fallback, it hands over here and returns ErrMigrated on success.
// A failure before the commit point returns a *MigrationFailure
// (Committed=false); a failure after it also returns ErrMigrated — the
// destination owns the process and its failed restoration decides the
// process's fate.
func (c *Context) migrate(label string, sig pendingCmd, fallback bool) error {
	p := c.proc
	mw := p.mw
	att := &attempt{
		proc: p.name,
		sig:  sig,
		rec: Record{
			From:        c.env.Host,
			To:          sig.cmd.DestHost,
			Label:       label,
			CommandAt:   sig.at,
			PollPointAt: mw.clock.Now(),
		},
	}
	rec := &att.rec
	if !fallback {
		// The command is consumed once: a fallback's second attempt
		// waited for no poll-point.
		mw.span(SpanPollWait, rec.PollPointAt.Sub(rec.CommandAt))
	}
	mw.observe(att.event(PhaseStart, 0, nil))

	if mw.live && !fallback {
		// No single non-empty paged region leaves pages nil and the command
		// to stop-and-copy.
		att.pagesName, att.pages = c.state.pagesRegion()
	}
	if att.pages == nil {
		// Stop-and-copy freezes here: the state is collected before the
		// destination exists, so a collection failure costs no spawn.
		if err := c.collectState(att); err != nil {
			return mw.abort(att, PhaseStart, 0, err)
		}
	}
	if err := c.connectDestination(att); err != nil {
		return mw.abort(att, PhaseStart, 0, err)
	}
	rec.InitDone = mw.clock.Now()
	mw.span(SpanInit, rec.InitDone.Sub(rec.PollPointAt))
	mw.observe(att.event(PhaseInit, 0, nil))

	if att.pages == nil {
		return c.handover(att, PhaseInit)
	}
	c.startPrecopy(att)
	return nil
}

// connectDestination obtains the initialized process on the destination:
// connect to a pre-initialized one if available (the Section 5.2
// optimisation), otherwise create it now through dynamic process creation
// (MPI_Comm_spawn; charged with the LAM-like spawn latency). Either way an
// intercommunicator carries the state.
func (c *Context) connectDestination(att *attempt) error {
	p := c.proc
	cmd := att.sig.cmd
	if port, ok := p.takePreinit(cmd.DestHost); ok {
		if inter, err := c.env.Connect(port, c.env.World); err == nil {
			att.inter = inter
			return nil
		}
		// Pre-initialized process gone; fall back to spawn.
	}
	inter, err := c.env.Spawn([]string{cmd.DestHost}, func(child *mpi.Env) error {
		return p.bootstrap(child, child.Parent)
	})
	if err != nil {
		return fmt.Errorf("hpcm: dynamic process creation on %q: %w", cmd.DestHost, err)
	}
	att.inter = inter
	return nil
}

// collectState freezes the state for the handover and records its sizes.
// After precopy the region is not collected whole: the image ends with a
// delta of the pages dirtied since the last round, windows of the region
// itself like every other segment collection references, since the
// application is paused here. Every one of them was already shipped in an
// earlier round, so it counts as resent alongside rounds 2..N — and not in
// the record's eager bytes.
func (c *Context) collectState(att *attempt) error {
	img, err := c.collect(att.rec.Label, att.pagesName)
	if err != nil {
		return fmt.Errorf("hpcm: state collection: %w", err)
	}
	for _, s := range img.Segments {
		if s.Lazy {
			att.rec.LazyBytes += int64(s.Size)
		} else {
			att.rec.EagerBytes += int64(s.Size)
		}
	}
	if att.pages != nil {
		ids := att.pages.DirtySince(att.res.ShippedGen)
		att.rec.PagesResent = att.res.PagesResent + len(ids)
		img.Segments = append(img.Segments, att.delta(ids, att.pages.View(), false))
	}
	att.img = img
	return nil
}

// handover is the commit sequence, the same for every migration once the
// destination exists and the state is collected: communication state,
// execution state and eager memory state transfer synchronously, the
// destination resumes as soon as it has them, and the lazy state streams
// behind. A failure before the destination's resume aborts in abortPhase
// (PhaseInit for stop-and-copy, PhaseFreeze after precopy).
func (c *Context) handover(att *attempt, abortPhase string) error {
	p := c.proc
	mw := p.mw
	rec := &att.rec
	inter := att.inter
	abort := func(err error) error { return mw.abort(att, abortPhase, 0, err) }

	p.mu.Lock()
	oldHP := p.hostProc
	p.mu.Unlock()

	// The communication state — queued undelivered messages — moves with
	// the process; the mailbox lives with the process identity, so only
	// the wire time is charged.
	if pending := p.pendingBytes(); pending > 0 {
		if err := mw.universe.Transport().Send(rec.From, rec.To, pending); err != nil {
			return abort(fmt.Errorf("hpcm: communication state transfer: %w", err))
		}
	}
	if err := att.img.sendState(inter); err != nil {
		return abort(err)
	}
	if err := recvStatus(inter, tagResumed); err != nil {
		return abort(fmt.Errorf("hpcm: destination %q failed to initialize: %w", rec.To, err))
	}
	rec.ResumeAt = mw.clock.Now()

	// The migration is committed: the destination owns the process. Record
	// it now (RestoreDone is filled in below) so observers that synchronise
	// on process completion always see the count.
	p.mu.Lock()
	p.records = append(p.records, *rec)
	recIdx := len(p.records) - 1
	p.migrs++
	p.mu.Unlock()
	if att.pages != nil {
		// Converged: the destination adopted round 1's copy and patched the
		// freeze delta in before it resumed. A stop-and-copy has no pages.
		region := att.pages.Release()
		mw.spare.Store(&region)
	}
	select {
	case p.events <- *rec:
	default:
	}
	mw.span(SpanTransfer, rec.ResumeAt.Sub(rec.InitDone))
	mw.metrics.Histogram(MetricDowntimeSeconds).Observe(rec.Downtime().Seconds())
	if att.pages != nil {
		mw.metrics.Histogram(MetricPrecopyRounds).Observe(float64(rec.PrecopyRounds))
		mw.metrics.Histogram(MetricPagesResent).Observe(float64(rec.PagesResent))
	}
	mw.observe(att.event(PhaseResume, 0, nil))

	return c.completeMigration(att, oldHP, recIdx)
}

// completeMigration is the post-commit tail: lazy (bulk) state streams in
// chunks while the destination already executes — the data restoration /
// execution overlap of Section 5.2 — then the restore handshake closes the
// record and the source leaves its host's process table. A failure here is
// post-commit: the destination owns the process but its bulk state will
// never fully arrive, so the inbound stream is failed (destination Awaits
// unblock with the error), the source cleans up, and ErrMigrated is still
// returned — the destination incarnation's fate decides the process's fate.
func (c *Context) completeMigration(att *attempt, oldHP HostProc, recIdx int) error {
	p := c.proc
	mw := p.mw
	clock := mw.clock
	inter := att.inter

	postFail := func(err error) error {
		ev := att.event(PhaseFailed, 0, nil)
		mf := &MigrationFailure{
			From: ev.From, To: ev.To, Label: ev.Label,
			Phase: PhaseRestore, Committed: true, Err: err,
		}
		ev.Err = mf
		p.failSaved(mf)
		mw.observe(ev)
		oldHP.Exit()
		p.mu.Lock()
		p.records[recIdx].RestoreDone = clock.Now()
		p.mu.Unlock()
		return ErrMigrated
	}

	if err := sendLazy(inter, att.img.chunks(true, mw.chunk)); err != nil {
		return postFail(fmt.Errorf("hpcm: lazy state transfer: %w", err))
	}
	if err := recvStatus(inter, tagRestored); err != nil {
		return postFail(fmt.Errorf("hpcm: lazy restoration on %q: %w", att.rec.To, err))
	}

	// Source-side cleanup: leave the source host's process table.
	oldHP.Exit()

	p.mu.Lock()
	p.records[recIdx].RestoreDone = clock.Now()
	done := p.records[recIdx]
	p.mu.Unlock()
	mw.span(SpanRestore, done.RestoreDone.Sub(done.ResumeAt))
	mw.span(SpanTotal, done.MigrationTime())
	mw.observe(att.event(PhaseRestore, 0, nil))
	return ErrMigrated
}

// bootstrap is the initialized process: it restores execution and eager
// memory state, takes over the computation, and keeps restoring lazy state
// in the background. parent is the intercommunicator to the migrating
// process (the spawn parent, or the connection a pre-initialized process
// accepted). Whatever the source chose to send first — precopy rounds or the
// handover image straight away — is receiveState's to follow.
func (p *Process) bootstrap(env *mpi.Env, parent *mpi.Comm) error {
	// Failures from here to the resume handshake are reported back, so the
	// source can resume locally instead of hanging.
	clock := env.U.Clock()
	img, saved, err := receiveState(clock, parent)
	if errors.Is(err, mpi.ErrKilledByPeer) {
		return nil // the source gave up on the attempt and killed this process
	}
	if err != nil {
		_ = parent.Send(statusText(err), 0, tagResumed)
		return err
	}
	if saved == nil {
		return nil // the source cancelled the attempt
	}

	// The initialized process joins the destination host's process table
	// before taking over, with the memory the source last reported.
	hp, err := p.mw.hosts.Attach(env.Host, p.name, img.Memory)
	if err != nil {
		_ = parent.Send(statusText(err), 0, tagResumed)
		return fmt.Errorf("hpcm: attach on destination %q: %w", env.Host, err)
	}
	p.mu.Lock()
	p.host = env.Host
	p.hostProc = hp
	p.saved = saved // the source fails this stream if post-commit transfer breaks
	p.mu.Unlock()

	if err := parent.Send(statusText(nil), 0, tagResumed); err != nil {
		return err
	}

	// Background restoration of lazy state, overlapping execution. Its
	// outcome goes back to the source either way: a destination that cannot
	// use the stream must not leave the source waiting for the handshake.
	var rerr error
	var restored vclock.Event
	vclock.Go(clock, func() {
		defer restored.Fire()
		err := saved.restore(parent, img, true)
		rerr = errors.Join(err, parent.Send(statusText(err), 0, tagRestored))
	})

	err = p.incarnation(env, img.Label, saved)
	vclock.Await(clock, &restored)
	if rerr != nil && err == nil {
		err = fmt.Errorf("hpcm: lazy restoration: %w", rerr)
	}
	return err
}
