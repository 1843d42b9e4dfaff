package hpcm

import (
	"fmt"
	"sync/atomic"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
)

// Wire tags of the state-transfer protocol on the parent/child
// intercommunicator.
const (
	tagHeader   = 1 // execution state: label, lazy inventory, memory size
	tagEager    = 2 // eager memory image
	tagLazy     = 3 // lazy state chunks
	tagResumed  = 4 // child -> parent: execution resumed
	tagRestored = 5 // child -> parent: all lazy state restored
	tagPrecopy  = 6 // live path: precopy batch metadata and page batches
)

// header is the execution-state message: everything the initialized process
// needs before it can take over the computation.
type header struct {
	Label     string
	LazyNames []string
	LazySizes []int64
	Memory    int64
	// PagesName, on the live path, names the paged region the destination
	// already assembled from precopy batches; it is excluded from LazyNames.
	PagesName string
}

// chunkMeta announces one lazy-state fragment; the fragment's bytes follow
// as a raw message (the mpi []byte fast path), so large memory images move
// with a single copy end to end.
type chunkMeta struct {
	Name string
	Size int64
	Last bool
}

// resumeStatus reports whether the initialized process took over. The child
// always sends one before doing anything else that can block the source, so
// a destination-side failure never wedges the migrating process.
type resumeStatus struct {
	OK  bool
	Err string
}

// attempt is one migration in flight on the source, created at the
// poll-point that consumed the migrate command. A stop-and-copy migration
// hands over at that same poll-point. A live one (driver set) first ships
// its paged region in precopy rounds while the application computes, and
// hands over at a later poll-point — the same handover, with the region
// already on the destination.
type attempt struct {
	proc  string
	sig   pendingCmd
	rec   Record
	inter *mpi.Comm // to the initialized process on the destination

	// The state frozen for the handover: execution-state header plus the
	// eager and lazy memory images (minus a precopied region).
	hdr         header
	eager, lazy map[string][]byte

	// Precopy prefix (livemigrate.go); all zero for stop-and-copy.
	pagesName string
	pages     *livemig.Pages
	driver    *livemig.Driver
	cancelled atomic.Bool
	done      chan struct{} // closed when the driver goroutine finished
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
func (m *Middleware) abort(att *attempt, phase string, round int, err error) error {
	mf := &MigrationFailure{
		From: att.rec.From, To: att.rec.To, Label: att.rec.Label, Phase: phase, Err: err,
	}
	m.observe(att.event(PhaseAborted, round, mf))
	return mf
}

// migrate starts moving this incarnation to sig.cmd's destination. It runs
// at a poll-point on the source. With live set and exactly one paged region
// registered it launches the precopy rounds and returns nil — the
// application keeps computing and a later poll-point (pollLive) hands over.
// Otherwise it hands over here and returns ErrMigrated on success. A failure
// before the commit point returns a *MigrationFailure (Committed=false); a
// failure after it also returns ErrMigrated — the destination owns the
// process and its failed restoration decides the process's fate.
func (c *Context) migrate(label string, sig pendingCmd, live *livemig.Config) error {
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
	mw.observe(att.event(PhaseStart, 0, nil))

	if live != nil {
		if name, pages := c.state.pagesRegion(); pages != nil {
			onRound := func(round, sent, dirty int) {
				mw.observe(att.event(PhasePrecopy, round, nil))
			}
			// An unmigratable shape (empty region) leaves driver nil and the
			// command to stop-and-copy.
			if driver, err := livemig.NewDriver(*live, pages, att.sendBatch, onRound); err == nil {
				att.pagesName, att.pages, att.driver = name, pages, driver
			}
		}
	}
	if att.driver == nil {
		// Stop-and-copy freezes here: the state is collected before the
		// destination exists, so a collection failure costs no spawn.
		if err := c.collectState(att); err != nil {
			return mw.abort(att, PhaseStart, 0, err)
		}
	}
	if err := c.connectDestination(att); err != nil {
		return mw.abort(att, PhaseStart, 0, err)
	}
	att.rec.InitDone = mw.clock.Now()
	mw.observe(att.event(PhaseInit, 0, nil))

	if att.driver == nil {
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

// collectState freezes the memory state for the handover — everything but a
// region precopy already shipped — and builds the execution-state header.
func (c *Context) collectState(att *attempt) error {
	eager, lazy, err := c.state.collect(att.pagesName)
	if err != nil {
		return fmt.Errorf("hpcm: state collection: %w", err)
	}
	att.eager, att.lazy = eager, lazy
	att.hdr = header{Label: att.rec.Label, PagesName: att.pagesName}
	// Stream smallest blobs first (HPCM's restoration likewise prioritises
	// eagerly needed data).
	sortLazyNames(&att.hdr, lazy)
	for _, name := range att.hdr.LazyNames {
		att.rec.LazyBytes += int64(len(lazy[name]))
	}
	for _, data := range eager {
		att.rec.EagerBytes += int64(len(data))
	}
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
		rec.CommBytes = pending
		if err := mw.universe.Transport().Send(rec.From, rec.To, pending); err != nil {
			return abort(fmt.Errorf("hpcm: communication state transfer: %w", err))
		}
	}
	if err := inter.Send(att.hdr, 0, tagHeader); err != nil {
		return abort(fmt.Errorf("hpcm: execution state transfer: %w", err))
	}
	if err := inter.Send(att.eager, 0, tagEager); err != nil {
		return abort(fmt.Errorf("hpcm: eager state transfer: %w", err))
	}
	var resumed resumeStatus
	if _, err := inter.Recv(&resumed, 0, tagResumed); err != nil {
		return abort(fmt.Errorf("hpcm: resume handshake: %w", err))
	}
	if !resumed.OK {
		return abort(fmt.Errorf("hpcm: destination %q failed to initialize: %s", rec.To, resumed.Err))
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
	select {
	case p.events <- *rec:
	default:
	}
	mw.metrics.Histogram(MetricDowntimeSeconds).Observe(rec.Downtime().Seconds())
	if att.driver != nil {
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

	for _, name := range att.hdr.LazyNames {
		data := att.lazy[name]
		for off := 0; ; off += mw.chunk {
			end := off + mw.chunk
			last := end >= len(data)
			if last {
				end = len(data)
			}
			meta := chunkMeta{Name: name, Size: int64(end - off), Last: last}
			if err := inter.Send(meta, 0, tagLazy); err != nil {
				return postFail(fmt.Errorf("hpcm: lazy state transfer of %q: %w", name, err))
			}
			if err := inter.Send(data[off:end], 0, tagLazy); err != nil {
				return postFail(fmt.Errorf("hpcm: lazy state transfer of %q: %w", name, err))
			}
			if last {
				break
			}
		}
	}
	var restored bool
	if _, err := inter.Recv(&restored, 0, tagRestored); err != nil {
		return postFail(fmt.Errorf("hpcm: restore handshake: %w", err))
	}

	// Source-side cleanup: leave the source host's process table.
	oldHP.Exit()

	p.mu.Lock()
	p.records[recIdx].RestoreDone = clock.Now()
	done := p.records[recIdx]
	p.mu.Unlock()
	mw.metrics.Histogram(MetricMigrationSeconds).Observe(done.MigrationTime().Seconds())
	mw.observe(att.event(PhaseRestore, 0, nil))
	return ErrMigrated
}

// bootstrap is the initialized process: it restores execution and eager
// memory state, takes over the computation, and keeps restoring lazy state
// in the background. parent is the intercommunicator to the migrating
// process (the spawn parent, or the connection a pre-initialized process
// accepted). The first message says which prefix the source chose: precopy
// batches (a live migration — the paged region is assembled first and
// installed under the header's PagesName, so the application's Await finds
// it complete) or the execution-state header straight away.
func (p *Process) bootstrap(env *mpi.Env, parent *mpi.Comm) error {
	first, err := parent.Probe(0, mpi.AnyTag)
	if err != nil {
		return fmt.Errorf("hpcm: receive execution state: %w", err)
	}
	var region []byte
	if first.Tag == tagPrecopy {
		if region, err = receivePages(parent); err != nil || region == nil {
			return err // nil region: the source cancelled the attempt
		}
	}
	var hdr header
	if _, err := parent.Recv(&hdr, 0, tagHeader); err != nil {
		return fmt.Errorf("hpcm: receive execution state: %w", err)
	}
	saved := newSavedState()
	if _, err := parent.Recv(&saved.eager, 0, tagEager); err != nil {
		return fmt.Errorf("hpcm: receive eager state: %w", err)
	}
	if hdr.PagesName != "" {
		saved.completeLazy(hdr.PagesName, region)
	}

	// The initialized process joins the destination host's process table
	// before taking over. Failures are reported back so the source can
	// resume locally instead of hanging.
	hp, err := p.mw.hosts.Attach(env.Host, p.name, hdr.Memory)
	if err != nil {
		_ = parent.Send(resumeStatus{Err: err.Error()}, 0, tagResumed)
		return fmt.Errorf("hpcm: attach on destination %q: %w", env.Host, err)
	}
	p.mu.Lock()
	p.host = env.Host
	p.hostProc = hp
	p.saved = saved // the source fails this stream if post-commit transfer breaks
	p.mu.Unlock()

	if err := parent.Send(resumeStatus{OK: true}, 0, tagResumed); err != nil {
		return err
	}

	// Background restoration of lazy state, overlapping execution. Buffers
	// are preallocated from the header's size inventory so reassembly is a
	// single sequential copy per blob.
	restoreErr := make(chan error, 1)
	go func() {
		sizes := make(map[string]int64, len(hdr.LazyNames))
		for i, name := range hdr.LazyNames {
			sizes[name] = hdr.LazySizes[i]
		}
		pending := make(map[string][]byte, len(hdr.LazyNames))
		remaining := len(hdr.LazyNames)
		for remaining > 0 {
			var meta chunkMeta
			if _, err := parent.Recv(&meta, 0, tagLazy); err != nil {
				restoreErr <- err
				return
			}
			var data []byte
			if _, err := parent.Recv(&data, 0, tagLazy); err != nil {
				restoreErr <- err
				return
			}
			buf, ok := pending[meta.Name]
			if !ok {
				buf = make([]byte, 0, sizes[meta.Name])
			}
			buf = append(buf, data...)
			pending[meta.Name] = buf
			if meta.Last {
				saved.completeLazy(meta.Name, buf)
				delete(pending, meta.Name)
				remaining--
			}
		}
		restoreErr <- parent.Send(true, 0, tagRestored)
	}()

	err = p.incarnation(env, hdr.Label, saved)
	if rerr := <-restoreErr; rerr != nil && err == nil {
		err = fmt.Errorf("hpcm: lazy restoration: %w", rerr)
	}
	return err
}
