// Package hpcm reproduces the HPCM (High Performance Computing Mobility)
// middleware the paper's rescheduler drives: heterogeneous process migration
// for applications structured as resumable, labelled computations.
//
// HPCM's precompiler rewrites C/Fortran programs into code that (1) registers
// the variables making up the memory state, (2) marks poll-points — the
// "pre-defined possible points in the execution sequence where a migration
// can occur" — and (3) can restart execution at the label of the nearest
// poll-point. A Go application expresses the same structure directly: its
// Main registers state on the Context, calls PollPoint between phases, and
// dispatches on Resumed when restarted on a destination host.
//
// The migration protocol follows Section 3 and the timeline of Section 5.2:
//
//  1. The commander delivers a migrate command (the user-defined signal plus
//     the temp file carrying the destination address) — Process.Signal.
//  2. At the next poll-point the migrating process creates the initialized
//     process on the destination through MPI-2 dynamic process creation
//     (charged with the LAM-like spawn latency) and joins communicators.
//  3. Execution state (the poll-point label) and eager memory state transfer
//     first; the initialized process resumes immediately after — "the
//     process resumes execution at the destination before the migration
//     ends".
//  4. Lazy (bulk) memory state streams over in chunks concurrently with the
//     resumed execution, charged to the network; Context.Await blocks the
//     application if it touches bulk state before its restoration finishes.
//
// Every phase is timed into a Record, which the evaluation harness uses to
// reproduce the Figure 7/8 timelines and the migration-time column of
// Table 2.
package hpcm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"autoresched/internal/livemig"
	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// ErrMigrated is returned by PollPoint (and must be propagated out of Main)
// when the incarnation's state has been shipped to a destination host.
var ErrMigrated = errors.New("hpcm: process migrated")

// Main is a migration-enabled application body. It must propagate
// ErrMigrated unchanged when a poll-point fires.
type Main func(ctx *Context) error

// Command is the migrate order the commander delivers: the destination
// host.
type Command struct {
	DestHost string
}

// HostProc is a process's presence on a host: CPU charging, memory
// accounting and the process-table entry. The cluster package binds this to
// a simulated host; a null implementation runs unbound.
type HostProc interface {
	PID() int
	Started() time.Time
	Compute(work float64) error
	SetMemory(bytes int64)
	Exit()
}

// HostBinder attaches processes to hosts.
type HostBinder interface {
	Attach(host, procName string, memory int64) (HostProc, error)
}

// Options configures the middleware.
type Options struct {
	// Universe supplies MPI services (dynamic process management, message
	// transport). Required.
	Universe *mpi.Universe
	// Hosts binds incarnations to host resources; nil runs unbound.
	Hosts HostBinder
	// ChunkBytes is the lazy-state streaming chunk size; zero selects 1 MB.
	ChunkBytes int
	// Checkpoints, when set, enables the checkpointing extension: processes
	// can write their state to the store at poll-points and be restored
	// from it after a host loss.
	Checkpoints CheckpointStore
	// CheckpointEvery automatically checkpoints at the first poll-point
	// after each interval (zero: only when one is requested).
	CheckpointEvery time.Duration
	// Events, when set, receives every migration phase event and every
	// checkpoint event on the unified runtime sink (Source "hpcm"), each
	// carrying its typed struct (MigrationEvent, CheckpointEvent) as the
	// Payload. Published synchronously from the migrating goroutine, so an
	// metrics.On[MigrationEvent] subscriber — a fault injector — can crash
	// a host at an exact protocol step. Sinks must not block indefinitely.
	Events metrics.Sink
	// Metrics, when set, receives the middleware's latency histograms:
	// hpcm/migration_seconds and hpcm/downtime_seconds (per committed
	// migration), hpcm/checkpoint_seconds (per checkpoint write), all on
	// the universe's clock, and — on the live path — hpcm/precopy_rounds and
	// hpcm/pages_resent (per committed live migration). Nil disables.
	Metrics *metrics.Registry
	// Live, when set, enables the iterative-precopy live migration path for
	// processes that registered exactly one paged memory region
	// (Context.RegisterPages): pages stream to the destination while the
	// source keeps computing, and the process freezes only for the residual
	// delta — falling back to the classic stop-and-copy migration when the
	// dirty set does not converge. Processes without a paged region migrate
	// classically regardless.
	Live *livemig.Config
}

// Metric names the middleware exports when Options.Metrics is set.
const (
	MetricMigrationSeconds  = "hpcm/migration_seconds"
	MetricDowntimeSeconds   = "hpcm/downtime_seconds"
	MetricCheckpointSeconds = "hpcm/checkpoint_seconds"
	MetricPrecopyRounds     = "hpcm/precopy_rounds"
	MetricPagesResent       = "hpcm/pages_resent"
)

// NullBinder returns the no-op HostBinder used when processes run unbound
// from any host model — benchmarks and pure protocol tests that need a
// binder without building a cluster. Its processes start at clock's now.
func NullBinder(clock vclock.Clock) HostBinder { return nullBinder{clock} }

// nullBinder satisfies HostBinder without any host model.
type nullBinder struct{ clock vclock.Clock }

type nullProc struct{ started time.Time }

func (b nullBinder) Attach(string, string, int64) (HostProc, error) {
	return &nullProc{started: b.clock.Now()}, nil
}
func (p *nullProc) PID() int              { return 0 }
func (p *nullProc) Started() time.Time    { return p.started }
func (p *nullProc) Compute(float64) error { return nil }
func (p *nullProc) SetMemory(int64)       {}
func (p *nullProc) Exit()                 {}

// Middleware is the per-node HPCM runtime.
type Middleware struct {
	universe  *mpi.Universe
	clock     vclock.Clock
	hosts     HostBinder
	chunk     int
	ckptStore CheckpointStore
	ckptEvery time.Duration
	events    metrics.Sink
	metrics   *metrics.Registry
	live      *livemig.Config
	procs     sync.Map // live process directory: name -> *Process
}

// New creates a Middleware.
func New(opts Options) (*Middleware, error) {
	if opts.Universe == nil {
		return nil, errors.New("hpcm: Options.Universe is required")
	}
	if opts.Hosts == nil {
		opts.Hosts = nullBinder{opts.Universe.Clock()}
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = 1 << 20
	}
	if opts.Metrics != nil {
		// Pre-create the histograms so /metrics exposes them (empty) even
		// before the first migration.
		for _, name := range []string{
			MetricMigrationSeconds, MetricDowntimeSeconds, MetricCheckpointSeconds,
			MetricPrecopyRounds, MetricPagesResent,
		} {
			opts.Metrics.Histogram(name)
		}
	}
	return &Middleware{
		universe:  opts.Universe,
		clock:     opts.Universe.Clock(),
		hosts:     opts.Hosts,
		chunk:     opts.ChunkBytes,
		ckptStore: opts.Checkpoints,
		ckptEvery: opts.CheckpointEvery,
		events:    opts.Events,
		metrics:   opts.Metrics,
		live:      opts.Live,
	}, nil
}

// Process is one migration-enabled application instance. Its identity is
// stable across migrations; Host reports where it currently runs.
type Process struct {
	mw   *Middleware
	name string
	main Main

	signal   chan pendingCmd  // buffered: the pending migrate command, if any
	xfer     vclock.WaitGroup // in-flight migration transfers (source side)
	events   chan Record      // committed migrations, for runtime re-registration
	mbox     *mailbox         // inter-process messages, owned by the identity
	ckptReq  atomic.Bool      // checkpoint requested for the next poll-point
	killed   atomic.Bool      // host-crash simulation flag
	evictReq atomic.Bool      // preemption eviction armed for the next poll-point
	memory   atomic.Int64     // last SetMemory value; travels in the state image

	mu       sync.Mutex
	host     string
	hostProc HostProc
	saved    *savedState // the current resumed incarnation's inbound state
	live     *attempt    // in-flight precopy attempt, resolved at a poll-point
	records  []Record
	migrs    int
	preinit  map[string]string // destination -> waiting port (Section 5.2)
	lastCkpt time.Time
	ckpts    int
	finished bool
	result   error
	done     chan struct{}
}

// Record times one migration's phases (Section 5.2 / Table 2).
type Record struct {
	From, To string
	Label    string
	// CommandAt is when the migrate command reached the process.
	CommandAt time.Time
	// PollPointAt is when execution hit the migration poll-point.
	PollPointAt time.Time
	// InitDone is when the initialized process existed on the destination
	// (dynamic process creation complete).
	InitDone time.Time
	// ResumeAt is when the destination resumed execution (execution state
	// plus eager memory state restored).
	ResumeAt time.Time
	// RestoreDone is when the last lazy state chunk was restored.
	RestoreDone time.Time
	// FreezeAt is when a live migration froze the source for the residual
	// transfer; zero for classic stop-and-copy migrations.
	FreezeAt time.Time
	// PrecopyRounds and PagesResent summarise the live path: iterative
	// rounds run before the freeze, and pages shipped more than once
	// (rounds 2..N plus the freeze residual). Zero for classic migrations.
	PrecopyRounds int
	PagesResent   int
	// EagerBytes and LazyBytes are the transferred memory-state sizes.
	EagerBytes int64
	LazyBytes  int64
}

// MigrationTime is the full migration duration: command arrival to complete
// state restoration — the paper's "migration time" column.
func (r Record) MigrationTime() time.Duration { return r.RestoreDone.Sub(r.CommandAt) }

// Downtime is how long the application made no progress: command arrival to
// destination resume for classic migrations, freeze to destination resume
// for live ones (the source keeps computing through the precopy rounds).
func (r Record) Downtime() time.Duration {
	if !r.FreezeAt.IsZero() {
		return r.ResumeAt.Sub(r.FreezeAt)
	}
	return r.ResumeAt.Sub(r.CommandAt)
}

// Start launches a migration-enabled process named name on host.
func (m *Middleware) Start(name, host string, main Main) (*Process, error) {
	return m.launch(name, host, main, image{}, nil)
}

// launch registers a process and starts its first incarnation on host; img
// (label, memory) and saved carry resume state when it continues from a
// checkpoint.
func (m *Middleware) launch(name, host string, main Main, img image, saved *savedState) (*Process, error) {
	p := &Process{
		mw:     m,
		name:   name,
		main:   main,
		signal: make(chan pendingCmd, 1),
		events: make(chan Record, 16),
		mbox:   newMailbox(m.clock),
		host:   host,
		done:   make(chan struct{}),
	}
	p.memory.Store(img.Memory)
	if err := m.register(p); err != nil {
		return nil, err
	}
	hp, err := m.hosts.Attach(host, name, img.Memory)
	if err != nil {
		m.deregister(p)
		return nil, fmt.Errorf("hpcm: attach %q to %q: %w", name, host, err)
	}
	p.hostProc = hp
	m.universe.Start([]string{host}, func(env *mpi.Env) error {
		return p.incarnation(env, img.Label, saved)
	})
	return p, nil
}

// pendingCmd stamps a migrate command with its delivery time, the start of
// the measured migration timeline.
type pendingCmd struct {
	cmd Command
	at  time.Time
}

// Signal delivers a migrate command (the commander's user-defined signal).
// A command already pending is replaced.
func (p *Process) Signal(cmd Command) {
	sig := pendingCmd{cmd: cmd, at: p.mw.clock.Now()}
	select {
	case <-p.signal: // drop the stale command
	default:
	}
	p.signal <- sig
}

// Name returns the application name.
func (p *Process) Name() string { return p.name }

// Host returns the host the process currently runs on.
func (p *Process) Host() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.host
}

// PID returns the pid of the current incarnation's host process.
func (p *Process) PID() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hostProc.PID()
}

// Started returns the start time of the current incarnation (the pid-file
// timestamp the paper's process selector reads).
func (p *Process) Started() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hostProc.Started()
}

// Migrations reports how many migrations have completed.
func (p *Process) Migrations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.migrs
}

// Records returns the migration records so far.
func (p *Process) Records() []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Record(nil), p.records...)
}

// Done returns a channel closed when the process (in whatever incarnation)
// has finished.
func (p *Process) Done() <-chan struct{} { return p.done }

// Events delivers a Record for every committed migration (buffered; dropped
// if nobody listens). Only cmd/bench reads it; the runtime re-homes a moved
// process on the PhaseResume event instead.
func (p *Process) Events() <-chan Record { return p.events }

// Wait blocks until the process finishes — including the source-side
// completion of any in-flight state transfer — and returns its error.
func (p *Process) Wait() error {
	vclock.Await(p.mw.clock, p.done)
	p.xfer.Wait(p.mw.clock)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.result
}

// failSaved fails the current resumed incarnation's inbound state stream:
// Await calls blocked on lazy blobs that will never arrive unblock with err.
// The source side calls this when a committed migration's bulk streaming
// breaks, so the destination — which owns the process — decides its fate.
func (p *Process) failSaved(err error) {
	p.mu.Lock()
	saved := p.saved
	p.mu.Unlock()
	if saved != nil {
		saved.fail(err)
	}
}

// finish records the terminal result, once. All cleanup — host process
// exit, directory deregistration, mailbox close, release of unused
// pre-initialized processes — completes before done closes, so Wait
// observes a fully settled process.
func (p *Process) finish(err error) {
	p.mu.Lock()
	if p.finished {
		p.mu.Unlock()
		return
	}
	p.finished = true
	p.result = err
	hp := p.hostProc
	ports := make([]string, 0, len(p.preinit))
	for _, port := range p.preinit {
		ports = append(ports, port)
	}
	p.preinit = nil
	p.mu.Unlock()

	// A live attempt still copying is pointless now: cancel it so its
	// destination discards the partial region and the precopy goroutine
	// (tracked by xfer) winds down.
	p.cancelLive()
	hp.Exit()
	p.mw.deregister(p)
	p.mbox.close()
	for _, port := range ports {
		p.mw.universe.ClosePort(port)
	}
	close(p.done)
}

// incarnation runs the application body once on one host; label and saved
// carry resume state for post-migration incarnations.
func (p *Process) incarnation(env *mpi.Env, label string, saved *savedState) error {
	ctx := &Context{
		proc:  p,
		env:   env,
		label: label,
		state: newRegistry(saved),
	}
	err := p.main(ctx)
	if errors.Is(err, ErrMigrated) {
		// The destination incarnation owns the process now; this MPI
		// process simply exits (the paper's source-side cleanup).
		return nil
	}
	p.finish(err)
	return err
}
