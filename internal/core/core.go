// Package core assembles the runtime system of the paper: per-host monitors
// and commanders, a (possibly hierarchical) registry/scheduler, the HPCM
// migration middleware and the MPI-2 layer, wired into the autonomic loop —
// monitors classify their hosts through rules and push soft-state to the
// registry; when a host needs offloading the registry selects the process
// with the latest completion time and a first-fit destination, and orders
// the source commander to start the migration; the process moves at its
// next poll-point and is re-registered under its new host. The simulated
// testbed it runs on, a Cluster of hosts and their network, is here too.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/livemig"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/mpi"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// Options configures a System.
type Options struct {
	// Cluster supplies hosts, network and host binding. Required.
	Cluster *Cluster
	// Policy drives migration decisions; nil selects the state-based
	// default (migrate off Overloaded hosts onto Free ones).
	Policy *rules.MigrationPolicy
	// GatherCost charges each monitoring cycle's CPU cost to the host, in
	// work units; zero disables (and makes the rescheduler free, which is
	// not what the paper measured — Figure 5's overhead comes from here).
	GatherCost float64
	// Warmup and Cooldown damp the scheduler (see registry.WithWarmup and
	// registry.WithCooldown).
	Warmup   int
	Cooldown time.Duration
	// ChunkBytes is the lazy state streaming chunk size.
	ChunkBytes int
	// Parent chains this system's registry under an upper-level one.
	Parent *registry.Registry
	// RegistryHost, when set, names the host the registry/scheduler runs
	// on; status refreshes from other hosts are then charged to the
	// network as statusBytes-sized transfers, making the rescheduler's
	// control traffic visible in the NIC counters (Figure 6).
	RegistryHost string
	// Checkpoints enables the checkpointing extension (see internal/hpcm):
	// applications periodically persist their state and can be recovered
	// on another host after a crash — the paper's fault-tolerance
	// motivation ("reschedule when the machine will shut down").
	Checkpoints hpcm.CheckpointStore
	// CheckpointEvery is the automatic checkpoint interval.
	CheckpointEvery time.Duration
	// FailoverRetries is how many times the runtime recovers an application
	// after a recoverable failure (host crash, failed migration): restore
	// from the last checkpoint onto a fresh first-fit host, or cold-restart
	// when no checkpoint exists. Zero disables automatic failover.
	FailoverRetries int
	// Store, when set, makes the registry's protocol state durable: every
	// mutation appends to this write-ahead store and a registry restart
	// becomes crash-consistent bootstrap — hosts and processes are
	// recovered from snapshot+log instead of re-registering (see
	// internal/persist), compacted into a snapshot every snapshotEvery
	// records. Simulations pass a persist.MemStore.
	Store persist.Store
	// Events, when set, receives the unified runtime event stream: registry
	// decisions (Source "registry"), commander orders (Source "commander"),
	// migration and checkpoint phases (Source "hpcm") and job transitions
	// (Source "jobs") flow through this one sink, synchronously on the
	// emitting goroutine and after the runtime's own bookkeeping. Subscribe
	// to a layer's typed payload with metrics.On[T] (the fault injector's
	// Sink does, to crash hosts at exact migration phases); compose several
	// consumers with metrics.Multi.
	Events metrics.Sink
	// Metrics, when set, receives every layer's instruments: the control-
	// plane counters (proto/*, monitor/*, commander/*, registry/*,
	// persist/*, core/*, jobs/*), the registry's hosts gauge and decide
	// timings, monitor cycle durations, and hpcm's histograms — downtime,
	// checkpoint, and the per-migration phase spans (span/*) hpcm observes
	// from each migration's Record.
	Metrics *metrics.Registry
	// WrapReporter, when set, wraps each node's status reporter. The fault
	// injector uses this to drop, duplicate or delay heartbeats on the
	// monitor->registry path.
	WrapReporter func(host string, r monitor.Reporter) monitor.Reporter
	// JobPolicy drives the multi-job dispatcher's admission order and
	// preemption (see internal/jobs); nil selects FIFO (no preemption, no
	// backfill).
	JobPolicy jobs.Policy
	// SchedInterval is the dispatcher's periodic admission sweep, in virtual
	// time; zero selects 5 s. Submissions and completions also kick a cycle
	// immediately.
	SchedInterval time.Duration
}

// spawnLatency models LAM/MPI's slow dynamic process creation (Section 5.2).
const spawnLatency = 300 * time.Millisecond

// monitorInterval is the paper's monitoring frequency.
const monitorInterval = 10 * time.Second

// orderDedupWindow is how long the commander remembers the last order it
// executed: an identical order inside it is a redelivered duplicate from an
// at-least-once control plane, acknowledged without being re-executed. It
// must stay below the registry's 60 s default cooldown (and any
// Options.Cooldown), so that a legitimate repeat order passes.
const orderDedupWindow = 30 * time.Second

// snapshotEvery is how many records the registry appends to Options.Store
// between compacting snapshots.
const snapshotEvery = 64

// Counter names the runtime increments on Options.Metrics: migration
// outcomes (from the hpcm event stream), redelivered orders, failover
// recoveries, post-restart process resyncs and the job layer's dispatch
// outcomes.
const (
	CtrOrdersDeduped    = "commander/orders_deduped"
	CtrMigrCommitted    = "core/migrations_committed"
	CtrMigrAborted      = "core/migrations_aborted"
	CtrCkptRestores     = "core/checkpoint_restores"
	CtrColdRestarts     = "core/cold_restarts"
	CtrProcResyncs      = "registry/proc_resyncs"
	CtrJobsAdmitted     = "jobs/admitted"
	CtrJobsRequeued     = "jobs/requeued"
	CtrJobsShrunk       = "jobs/shrunk"
	CtrJobsMigrated     = "jobs/migrated"
	CtrJobsReservations = "jobs/reservations_lost"
)

// DefaultEngine returns a rule engine encoding the paper's running
// thresholds: a host is busy above load 1 and overloaded above load 2, or
// busy above 100 processes and overloaded above 150.
func DefaultEngine() *rules.Engine {
	e := rules.NewEngine(nil)
	must := func(r *rules.Rule) {
		if err := e.Add(r); err != nil {
			panic(err)
		}
	}
	must(&rules.Rule{
		Number: 1, Name: "loadAverage", Type: rules.Simple,
		Script: "loadAvg.sh", Param: "1", Operator: rules.OpGreater,
		Busy: 1, OverLd: 2,
		Desc: "one-minute load average",
	})
	must(&rules.Rule{
		Number: 2, Name: "numProcs", Type: rules.Simple,
		Script: "numProcs.sh", Operator: rules.OpGreater,
		Busy: 100, OverLd: 150,
		Desc: "active process count",
	})
	return e
}

// Node is one host's runtime presence: its monitor. The host's commander
// is System.Migrate.
type Node struct {
	Monitor *monitor.Monitor

	charger hpcm.HostProc // the monitor's own process-table entry
}

// App is a launched migration-enabled application.
type App struct {
	// Proc is the current hpcm process. Failover replaces it; read it
	// through Process() while the app may still be running.
	Proc   *hpcm.Process
	Schema *rules.Schema

	sys        *System
	job        string // the job the app is a rank of
	main       hpcm.Main
	settled    chan struct{} // closed after completion bookkeeping
	mu         sync.Mutex
	pid        int
	host       string
	launchHost string
	launched   time.Time
	retries    int // failover attempts consumed
	finalErr   error
	lastOrder  proto.MigrateOrder // the commander's last executed order
	orderedAt  time.Time

	// onSettled, when set, runs in the follow goroutine with the terminal
	// error just before settled closes — the job dispatcher folds the
	// rank's outcome into the job state machine through it, so by the time
	// Wait returns the job-level bookkeeping is already done.
	onSettled func(error)
}

// Process returns the app's current hpcm process (it changes on failover).
func (app *App) Process() *hpcm.Process {
	app.mu.Lock()
	defer app.mu.Unlock()
	return app.Proc
}

// Retries reports how many failover recoveries the app consumed.
func (app *App) Retries() int {
	app.mu.Lock()
	defer app.mu.Unlock()
	return app.retries
}

// Settled is closed once the app has finished AND the runtime has completed
// its bookkeeping: deregistration and the schema statistics feedback.
func (app *App) Settled() <-chan struct{} { return app.settled }

// System is the assembled runtime.
type System struct {
	opts     Options
	clock    vclock.Clock
	cluster  *Cluster
	universe *mpi.Universe
	mw       *hpcm.Middleware
	reg      *registry.Registry
	events   metrics.Sink // combined sink: the runtime's subscriptions + Options.Events

	// Multi-job control plane (see jobs.go).
	queue  *jobs.Queue
	policy jobs.Policy

	mu      sync.Mutex
	nodes   map[string]*Node
	apps    []*App
	jobRuns map[string]*jobRun
	ledger  jobs.Ledger // which jobs hold each host

	dispatchOnce     sync.Once
	dispatchStopOnce sync.Once
	dispatcherOn     atomic.Bool
	kickMu           sync.Mutex
	kicked           chan struct{} // closed by a kick, replaced when the dispatcher takes it
	dispatchStop     chan struct{}
	dispatchDone     chan struct{}
}

// New assembles a System over a cluster.
func New(opts Options) (*System, error) {
	if opts.Cluster == nil {
		return nil, errors.New("core: Options.Cluster is required")
	}
	if opts.SchedInterval <= 0 {
		opts.SchedInterval = 5 * time.Second
	}
	if opts.JobPolicy == nil {
		opts.JobPolicy = jobs.FIFO{}
	}
	clock := opts.Cluster.Clock()
	universe := mpi.NewUniverse(mpi.Options{
		Clock:        clock,
		Transport:    mpi.SimTransport{Net: opts.Cluster.Net()},
		SpawnLatency: spawnLatency,
		HostCheck:    opts.Cluster.HostCheck,
	})
	s := &System{
		opts:         opts,
		clock:        clock,
		cluster:      opts.Cluster,
		nodes:        make(map[string]*Node),
		policy:       opts.JobPolicy,
		jobRuns:      make(map[string]*jobRun),
		kicked:       make(chan struct{}),
		dispatchStop: make(chan struct{}),
		dispatchDone: make(chan struct{}),
	}
	s.universe = universe
	// The event sink every layer publishes to. Order is part of the
	// contract: the runtime's own subscriptions first (commit/abort
	// counting, restart resync), then the caller's sink — so a fault
	// injector's trap fires at the exact phase, after the phase is counted.
	sink := metrics.Multi(
		metrics.On(s.onMigrationEvent),
		metrics.On(s.onRegistryRestart),
		opts.Events,
	)
	s.events = sink
	s.queue = jobs.NewQueue(clock, sink)
	mw, err := hpcm.New(hpcm.Options{
		Universe:        universe,
		Hosts:           opts.Cluster,
		ChunkBytes:      opts.ChunkBytes,
		Checkpoints:     opts.Checkpoints,
		CheckpointEvery: opts.CheckpointEvery,
		Events:          sink,
		Metrics:         opts.Metrics,
		// A process with one paged region precopies; any other stops
		// and copies.
		Live: &livemig.Config{},
	})
	if err != nil {
		return nil, err
	}
	s.mw = mw
	s.reg = registry.NewRegistry(
		registry.WithClock(clock),
		registry.WithPolicy(opts.Policy),
		registry.WithCommands(s),
		registry.WithWarmup(opts.Warmup),
		registry.WithCooldown(opts.Cooldown),
		registry.WithParent(opts.Parent),
		registry.WithEvents(sink),
		registry.WithMetrics(opts.Metrics),
		registry.WithStore(opts.Store),
		registry.WithSnapshotEvery(snapshotEvery),
	)
	return s, nil
}

// onMigrationEvent keeps the commit/abort counters and re-homes the app a
// committed migration moved, on the migrating goroutine.
func (s *System) onMigrationEvent(ev hpcm.MigrationEvent) {
	switch ev.Phase {
	case hpcm.PhaseResume:
		s.opts.Metrics.Counter(CtrMigrCommitted).Inc()
		if app := s.appOf(ev.Proc); app != nil {
			app.applyMove(ev.To)
		}
	case hpcm.PhaseAborted:
		s.opts.Metrics.Counter(CtrMigrAborted).Inc()
	default:
		// Intermediate phases (start/init/precopy/freeze/restore) and
		// post-commit failures are neither commits nor aborts.
	}
}

// onRegistryRestart reacts to a registry restart that dropped the soft
// state: the runtime resyncs its live process registrations once the
// monitors' heartbeats have re-registered the hosts. A crash-consistent
// recovery from a durable store brings the process registrations back from
// the change log, so no resync is needed (the zero-re-registration property
// the chaos suite counter-asserts).
func (s *System) onRegistryRestart(ev registry.RestartEvent) {
	if !ev.Recovered {
		vclock.Go(s.clock, s.resyncProcs)
	}
}

// Clock returns the system clock.
func (s *System) Clock() vclock.Clock { return s.clock }

// Cluster returns the underlying cluster.
func (s *System) Cluster() *Cluster { return s.cluster }

// Registry returns the registry/scheduler.
func (s *System) Registry() *registry.Registry { return s.reg }

// Universe returns the MPI universe.
func (s *System) Universe() *mpi.Universe { return s.universe }

// Migrate implements registry.CommandSink as the source host's commander
// (Section 3): it delivers the user-defined signal, its payload the
// destination, to the process the order names. The paper writes the
// destination to a temporary file first; here the payload is its one
// carrier. An order identical to one executed within orderDedupWindow is
// acknowledged without being re-executed (a redelivered duplicate, not a
// new decision).
func (s *System) Migrate(host string, order proto.MigrateOrder) error {
	if order.DestHost == "" {
		return errors.New("commander: order without destination")
	}
	app := s.appAt(host, order.PID)
	if app == nil {
		return fmt.Errorf("commander: no managed process with pid %d on %s", order.PID, host)
	}
	app.mu.Lock()
	last, at, proc := app.lastOrder, app.orderedAt, app.Proc
	app.mu.Unlock()
	if last.PID == order.PID && last.DestHost == order.DestHost &&
		last.DestAddr == order.DestAddr && s.clock.Since(at) <= orderDedupWindow {
		s.opts.Metrics.Counter(CtrOrdersDeduped).Inc()
		return nil
	}
	s.events.Publish(metrics.Event{
		Time:   s.clock.Now(),
		Source: metrics.SourceCommander,
		Kind:   "order",
		Host:   host,
		Dest:   order.DestHost,
		PID:    order.PID,
	})
	proc.Signal(hpcm.Command{DestHost: order.DestHost})
	app.mu.Lock()
	app.lastOrder, app.orderedAt = order, s.clock.Now()
	app.mu.Unlock()
	return nil
}

// appAt returns the app whose running process is pid on host, or nil. An
// app whose current process has finished is no commander's target.
func (s *System) appAt(host string, pid int) *App {
	s.mu.Lock()
	apps := append([]*App(nil), s.apps...)
	s.mu.Unlock()
	for _, app := range apps {
		app.mu.Lock()
		proc, hit := app.Proc, app.host == host && app.pid == pid
		app.mu.Unlock()
		if !hit {
			continue
		}
		select {
		case <-proc.Done():
		default:
			return app
		}
	}
	return nil
}

// Node returns the runtime node on a host.
func (s *System) Node(host string) (*Node, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[host]
	return n, ok
}

// AddNode deploys a monitor on a cluster host and starts monitoring. The
// monitor registers the host with the registry/scheduler.
func (s *System) AddNode(host string) (*Node, error) {
	if _, ok := s.cluster.Host(host); !ok {
		return nil, fmt.Errorf("core: unknown cluster host %q", host)
	}
	s.mu.Lock()
	if _, ok := s.nodes[host]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: node already deployed on %q", host)
	}
	s.mu.Unlock()

	source, _ := s.cluster.Source(host)
	var charger hpcm.HostProc
	if s.opts.GatherCost > 0 {
		hp, err := s.cluster.Attach(host, "hpcm-monitor", 4<<20)
		if err != nil {
			return nil, err
		}
		charger = hp
	}
	var reporter monitor.Reporter = s.reg
	if s.opts.RegistryHost != "" && host != s.opts.RegistryHost {
		reporter = &chargedReporter{
			inner: reporter,
			net:   s.cluster.Net(),
			to:    s.opts.RegistryHost,
		}
	}
	if s.opts.WrapReporter != nil {
		reporter = s.opts.WrapReporter(host, reporter)
	}
	monOpts := []monitor.Option{
		monitor.WithEngine(DefaultEngine()),
		monitor.WithReporter(reporter),
		monitor.WithClock(s.clock),
		monitor.WithDefaultFrequency(monitorInterval),
		monitor.WithCommandAddr("cmd://" + host),
		monitor.WithSoftware([]string{"hpcm", "lam-mpi"}),
		monitor.WithMetrics(s.opts.Metrics),
	}
	if charger != nil {
		monOpts = append(monOpts, monitor.WithCharger(charger, s.opts.GatherCost))
	}
	mon, err := monitor.NewMonitor(host, source, monOpts...)
	if err != nil {
		return nil, err
	}
	node := &Node{Monitor: mon, charger: charger}
	s.mu.Lock()
	s.nodes[host] = node
	s.mu.Unlock()
	if err := mon.Start(); err != nil {
		return nil, err
	}
	return node, nil
}

// AddNodes deploys nodes on every named host.
func (s *System) AddNodes(hosts ...string) error {
	for _, h := range hosts {
		if _, err := s.AddNode(h); err != nil {
			return err
		}
	}
	return nil
}

// Stop halts the job dispatcher and all monitors (and their host charging).
func (s *System) Stop() {
	s.dispatchStopOnce.Do(func() { close(s.dispatchStop) })
	if s.dispatcherOn.Load() {
		vclock.Await(s.clock, s.dispatchDone)
	}
	s.mu.Lock()
	nodes := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.mu.Unlock()
	for _, n := range nodes {
		n.Monitor.Stop()
		if n.charger != nil {
			n.charger.Exit()
		}
	}
}

// Launch starts a migration-enabled application on a host, registers it
// with the registry/scheduler, and keeps the registration current as the
// process migrates. On completion the actual runtime is folded back into
// the schema (the self-adjustment feedback).
//
// Launch is the single-job compatibility shim over Submit: it submits a
// gang-of-one spec pinned to host and returns its rank-0 App.
func (s *System) Launch(name, host string, sch *rules.Schema, main hpcm.Main) (*App, error) {
	_, apps, err := s.submit(jobs.Spec{
		Name:   name,
		Hosts:  []string{host},
		Schema: sch,
		Rank:   func(int, int) hpcm.Main { return main },
	})
	if err != nil {
		return nil, err
	}
	return apps[0], nil
}

// registerProc (re-)registers the app's current incarnation.
func (s *System) registerProc(app *App) error {
	app.mu.Lock()
	host, pid, proc := app.host, app.pid, app.Proc
	app.mu.Unlock()
	info := proto.ProcessInfo{
		PID:   pid,
		Name:  proc.Name(),
		Start: proc.Started().UnixNano(),
	}
	if app.Schema != nil {
		data, err := app.Schema.Marshal()
		if err != nil {
			return err
		}
		info.SchemaXML = string(data)
	}
	return s.reg.RegisterProcess(host, info)
}

// appOf returns the app whose running process is named proc, or nil. A
// requeued job's relaunch and a recovered app reuse their names, so the
// newest app wins and one whose current process has finished is skipped.
func (s *System) appOf(proc string) *App {
	s.mu.Lock()
	apps := append([]*App(nil), s.apps...)
	s.mu.Unlock()
	for i := len(apps) - 1; i >= 0; i-- {
		p := apps[i].Process()
		if p.Name() != proc {
			continue
		}
		select {
		case <-p.Done():
		default:
			return apps[i]
		}
	}
	return nil
}

// follow tracks failures and completion, keeping the app's record and the
// registry consistent with where the process actually runs (a committed
// migration re-homes it in onMigrationEvent). Recoverable failures (host
// crash, failed migration) are retried through failover when
// Options.FailoverRetries allows.
func (app *App) follow() {
	s := app.sys
	for {
		proc := app.Process()
		err := proc.Wait()
		app.mu.Lock()
		host, pid := app.host, app.pid
		app.mu.Unlock()
		_ = s.reg.ProcessExit(host, pid)

		if hpcm.Recoverable(err) && app.Retries() < s.opts.FailoverRetries {
			app.mu.Lock()
			app.retries++
			app.mu.Unlock()
			if s.failover(app, err) {
				continue
			}
		}

		app.mu.Lock()
		app.finalErr = err
		app.mu.Unlock()
		if app.Schema != nil && err == nil {
			if h, ok := s.cluster.Host(app.LaunchHost()); ok {
				app.Schema.RecordRun(s.clock.Since(app.launched), h.Speed())
			}
		}
		if app.onSettled != nil {
			app.onSettled(err)
		}
		close(app.settled)
		return
	}
}

// applyMove re-homes the app's bookkeeping after a committed migration to
// host to.
func (app *App) applyMove(to string) {
	oldHost, oldPID := app.rehome(nil, to)
	_ = app.sys.reg.ProcessExit(oldHost, oldPID)
	_ = app.sys.registerProc(app)
}

// rehome records in the app and the job ledger that it runs on host to as p
// (nil: its current process), and returns the host and pid it ran as before.
func (app *App) rehome(p *hpcm.Process, to string) (string, int) {
	app.mu.Lock()
	from, pid := app.host, app.pid
	if p != nil {
		app.Proc = p
	}
	app.host, app.pid = to, app.Proc.PID()
	app.mu.Unlock()
	app.sys.mu.Lock()
	app.sys.ledger.Move(app.job, from, to)
	app.sys.mu.Unlock()
	return from, pid
}

// Host returns where the app currently runs (tracked via events).
func (app *App) Host() string {
	app.mu.Lock()
	defer app.mu.Unlock()
	return app.host
}

// LaunchHost returns where the app was originally launched.
func (app *App) LaunchHost() string { return app.launchHost }

// Wait blocks until the application finishes — including any failover
// recoveries — and returns its terminal error.
func (app *App) Wait() error {
	vclock.Await(app.sys.clock, app.settled)
	app.mu.Lock()
	defer app.mu.Unlock()
	return app.finalErr
}
