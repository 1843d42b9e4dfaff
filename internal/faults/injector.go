package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

// Config configures an Injector. Clock is required; System is bound with
// Bind (after core.New, since the system itself needs the injector's
// reporter wrapper and event sink at construction time).
type Config struct {
	Clock vclock.Clock
	// Metrics, when set, receives the monitor/status_* counters of the
	// heartbeat faults the injector applied.
	Metrics *metrics.Registry
}

// Counter names the injector increments on Config.Metrics, one per
// heartbeat fault applied on the monitor->registry path.
const (
	CtrStatusDropped    = "monitor/status_dropped"
	CtrStatusDuplicated = "monitor/status_duplicated"
	CtrStatusDelayed    = "monitor/status_delayed"
)

// Injector applies a Plan against a bound core.System in virtual time. It
// is the only interpreter of the DSL: every Kind has a case in apply.
//
// Construction order matters because the injector and the system reference
// each other, and because a plan names its targets (Event.Proc) while the
// injector needs the things themselves:
//
//	in := faults.NewInjector(faults.Config{Clock: clock, Metrics: mreg})
//	sys, _ := core.New(core.Options{
//		WrapReporter: in.WrapReporter,
//		Events:       in.Sink(),
//		...
//	})
//	in.Bind(sys)
//	app, _ := sys.Launch("test_tree", ...)
//	in.BindApp("test_tree", app) // migrate, crash-on-phase
//	in.BindSpec(jobs.Spec{Name: "batch", ...}) // submit-job, kill-on-checkpoint
//	job, _ := malleable.Start(malleable.Options{
//		Universe: sys.Universe(), Hosts: sys.Cluster(), Events: in.Sink(), ...
//	})
//	in.BindElastic(job) // resize, crash-on-resize-phase
//	in.Run(plan)
type Injector struct {
	cfg Config

	mu        sync.Mutex
	sys       *core.System
	apps      map[string]*core.App
	specs     map[string]jobs.Spec
	jobs      []*jobs.Job
	elastic   *malleable.Job
	taps      map[string]*tapState
	traps     []*trap
	applied   []string
	triggered []string
	running   bool

	stop vclock.Event
	done vclock.Event
}

// tapState is the pending per-host heartbeat interference, consumed one
// report at a time (drops first, then duplicates, then delays).
type tapState struct {
	drop    int
	dup     int
	delay   int
	delayBy time.Duration
}

// trap is an armed one-shot trigger: the arming event (KindCrashOnPhase,
// KindKillOnCkpt or KindCrashOnResizePhase, with the Proc, Phase, Round and
// Target it waits for) and whether it has fired.
type trap struct {
	ev    Event
	fired bool
}

// NewInjector creates an unbound injector.
func NewInjector(cfg Config) *Injector {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	return &Injector{
		cfg:   cfg,
		apps:  make(map[string]*core.App),
		specs: make(map[string]jobs.Spec),
		taps:  make(map[string]*tapState),
	}
}

// Bind attaches the system the injector faults.
func (in *Injector) Bind(sys *core.System) {
	in.mu.Lock()
	in.sys = sys
	in.mu.Unlock()
}

// BindApp names a launched app so KindMigrate and KindCrashOnPhase events
// can target it.
func (in *Injector) BindApp(name string, app *core.App) {
	in.mu.Lock()
	in.apps[name] = app
	in.mu.Unlock()
}

// BindSpec registers a job spec under its Name so KindSubmitJob events can
// submit it.
func (in *Injector) BindSpec(spec jobs.Spec) {
	in.mu.Lock()
	in.specs[spec.Name] = spec
	in.mu.Unlock()
}

// BindElastic attaches the malleable job KindResize proposes to. Host
// crashes — scheduled or trapped — reach its ranks as well as the system's.
func (in *Injector) BindElastic(job *malleable.Job) {
	in.mu.Lock()
	in.elastic = job
	in.mu.Unlock()
}

// Jobs returns the handles of the jobs KindSubmitJob events have submitted
// so far, in submission order.
func (in *Injector) Jobs() []*jobs.Job {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]*jobs.Job(nil), in.jobs...)
}

// Run applies the plan's events at their virtual offsets on a single
// goroutine (so the applied log is ordered) and returns immediately.
func (in *Injector) Run(plan Plan) {
	in.mu.Lock()
	if in.running {
		in.mu.Unlock()
		panic("faults: Injector.Run called twice")
	}
	in.running = true
	in.mu.Unlock()

	evs := plan.ordered()
	clock := in.cfg.Clock
	vclock.Go(clock, func() {
		defer in.done.Fire()
		var elapsed time.Duration
		for _, ev := range evs {
			if d := ev.After - elapsed; d > 0 {
				if vclock.Wait(clock, d, &in.stop) != nil {
					return
				}
				elapsed = ev.After
			}
			in.apply(ev)
		}
	})
}

// Done fires once every scheduled event has been applied.
func (in *Injector) Done() *vclock.Event { return &in.done }

// Stop abandons any not-yet-applied events.
func (in *Injector) Stop() { in.stop.Fire() }

// Applied returns the log of scheduled events already applied, in order.
func (in *Injector) Applied() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.applied...)
}

// Triggered returns the log of event-driven faults (phase traps) that fired.
func (in *Injector) Triggered() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.triggered...)
}

// apply executes one event and records it. The switch names every Kind and
// has no default, so reschedvet's eventcase check fails the tree when a Kind
// is declared without an interpreter. err is a plan that could not be
// applied as written (unknown host, unbound target); refused is the runtime
// turning the operation down, which is an outcome, not an injector error.
func (in *Injector) apply(ev Event) {
	in.mu.Lock()
	sys := in.sys
	in.mu.Unlock()

	var err error
	var refused string
	switch ev.Kind {
	case KindCrashHost:
		err = in.crashHost(ev.Host)
	case KindRestartRegistry:
		sys.RestartRegistry()
	case KindCrashLoopRegistry:
		for i := 0; i < countOf(ev); i++ {
			sys.RestartRegistry()
		}
	case KindTornWrite:
		err = in.tornWrite(ev, sys)
	case KindPartition:
		err = sys.Cluster().Net().SetPartitioned(ev.Host, ev.Peer, true)
	case KindHeal:
		err = sys.Cluster().Net().SetPartitioned(ev.Host, ev.Peer, false)
	case KindLinkFactor:
		err = sys.Cluster().Net().SetLinkFactor(ev.Host, ev.Peer, ev.Factor)
	case KindDropStatus:
		in.armTap(ev.Host, func(t *tapState) { t.drop += countOf(ev) })
	case KindDupStatus:
		in.armTap(ev.Host, func(t *tapState) { t.dup += countOf(ev) })
	case KindDelayStatus:
		in.armTap(ev.Host, func(t *tapState) {
			t.delay += countOf(ev)
			t.delayBy = ev.Delay
		})
	case KindMigrate:
		err = in.migrate(ev)
	case KindSubmitJob:
		refused, err = in.submit(ev, sys)
	case KindResize:
		refused, err = in.resize(ev)
	case KindCrashOnPhase, KindKillOnCkpt, KindCrashOnResizePhase:
		in.mu.Lock()
		in.traps = append(in.traps, &trap{ev: ev})
		in.mu.Unlock()
	}

	line := ev.String() + refused
	if err != nil {
		line += " error=" + err.Error()
	}
	in.record(&in.applied, line)
}

// record appends line to one of the injector's two logs.
func (in *Injector) record(log *[]string, line string) {
	in.mu.Lock()
	*log = append(*log, line)
	in.mu.Unlock()
}

// crashHost is the one host crash: the system loses the host (network down,
// monitor stopped, incarnations killed), and a bound elastic job — whose
// ranks the system does not know — loses its ranks there. The transport
// fails first so in-flight payloads fail before the job's liveness checks
// see the host dead.
func (in *Injector) crashHost(host string) error {
	in.mu.Lock()
	sys, job := in.sys, in.elastic
	in.mu.Unlock()
	err := sys.CrashHost(host)
	if job != nil {
		job.CrashHost(host)
	}
	return err
}

// submit hands the spec bound as ev.Proc to the job queue and keeps the
// handle for Jobs.
func (in *Injector) submit(ev Event, sys *core.System) (refused string, err error) {
	in.mu.Lock()
	spec, ok := in.specs[ev.Proc]
	in.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("faults: no job spec bound as %q", ev.Proc)
	}
	job, serr := sys.Submit(spec)
	if serr != nil {
		return " (submit failed: " + serr.Error() + ")", nil
	}
	in.mu.Lock()
	in.jobs = append(in.jobs, job)
	in.mu.Unlock()
	return "", nil
}

// resize proposes ev.Hosts to the bound elastic job.
func (in *Injector) resize(ev Event) (refused string, err error) {
	in.mu.Lock()
	job := in.elastic
	in.mu.Unlock()
	if job == nil {
		return "", errors.New("faults: no elastic job bound")
	}
	if perr := job.Propose(ev.Hosts); perr != nil {
		return " (propose failed: " + perr.Error() + ")", nil
	}
	return "", nil
}

// tornWrite chops Count bytes off the tail of the system's persist store,
// simulating a write torn by power loss just before a crash.
func (in *Injector) tornWrite(ev Event, sys *core.System) error {
	store := sys.Store()
	if store == nil {
		return fmt.Errorf("faults: torn-write needs a system with a persist store")
	}
	tt, ok := store.(persist.TailTruncator)
	if !ok {
		return fmt.Errorf("faults: store %T cannot tear its tail", store)
	}
	return tt.TruncateTail(countOf(ev))
}

func countOf(ev Event) int {
	if ev.Count > 0 {
		return ev.Count
	}
	return 1
}

// migrate orders the bound app to move, Count times back to back. Repeats
// model a redelivered order: the commander's dedup window should collapse
// them into one migration.
func (in *Injector) migrate(ev Event) error {
	in.mu.Lock()
	app := in.apps[ev.Proc]
	sys := in.sys
	in.mu.Unlock()
	if app == nil {
		return fmt.Errorf("faults: no app bound as %q", ev.Proc)
	}
	order := proto.MigrateOrder{
		PID:      app.Process().PID(),
		DestHost: ev.Dest,
		DestAddr: "cmd://" + ev.Dest,
	}
	for i := 0; i < countOf(ev); i++ {
		if err := sys.Migrate(app.Host(), order); err != nil {
			return err
		}
	}
	return nil
}

// Sink returns the injector's subscription for core.Options.Events and
// malleable.Options.Events (compose it with other consumers through
// metrics.Multi). It springs armed traps on the three protocol payloads —
// migration phases, checkpoint begins, resize phases — synchronously from
// the goroutine driving the protocol, so the crash lands at the exact step.
func (in *Injector) Sink() metrics.Sink {
	return metrics.Multi(
		metrics.On(func(ev hpcm.MigrationEvent) {
			in.spring(KindCrashOnPhase, ev.Proc, ev.Phase, ev.Round, func(target string) string {
				if target == "dest" {
					return ev.To
				}
				return ev.From
			})
		}),
		metrics.On(func(ev hpcm.CheckpointEvent) {
			if ev.Begin {
				in.spring(KindKillOnCkpt, ev.Proc, "", 0, func(string) string { return ev.Host })
			}
		}),
		metrics.On(func(ev malleable.Event) {
			in.spring(KindCrashOnResizePhase, ev.Job, ev.Phase, 0, func(target string) string {
				hosts := ev.Removed
				if target == "new" {
					hosts = ev.Added
				}
				if len(hosts) == 0 {
					return ""
				}
				return hosts[0]
			})
		}),
	)
}

// spring is the one fire path of every trap kind: the first armed trap of
// kind that waits for this protocol event — its Proc (when set), Phase and
// Round (when positive) match, and its Target resolves to a host through
// victim — fires once: crash, log line, publish.
func (in *Injector) spring(kind Kind, proc, phase string, round int, victim func(target string) string) {
	in.mu.Lock()
	var target, host string
	for _, tr := range in.traps {
		arm := tr.ev
		if tr.fired || arm.Kind != kind || arm.Phase != phase ||
			(arm.Proc != "" && arm.Proc != proc) || (arm.Round > 0 && arm.Round != round) {
			continue
		}
		if host = victim(arm.Target); host != "" {
			tr.fired, target = true, arm.Target
			break
		}
	}
	in.mu.Unlock()
	if host == "" {
		return
	}
	line := fmt.Sprintf("trap crash-host host=%s proc=%s phase=%s", host, proc, phase)
	if kind == KindKillOnCkpt {
		line = fmt.Sprintf("trap kill-on-checkpoint proc=%s host=%s target=%s", proc, host, target)
	}
	var err error
	if kind == KindKillOnCkpt && target == "proc" {
		// Only the incarnation dies mid-write; the host stays up.
		err = in.killRank(proc)
	} else {
		// A whole host dying mid-checkpoint also poisons a pending gang
		// reservation that holds it.
		err = in.crashHost(host)
	}
	if err != nil {
		line += " error=" + err.Error()
	}
	in.record(&in.triggered, line)
}

// killRank kills the running incarnation of one gang rank, named as
// jobs.RankName names it ("batch.1" is rank 1 of "batch"; a name without a
// rank suffix is a single-rank job).
func (in *Injector) killRank(proc string) error {
	job, rank := proc, 0
	if i := strings.LastIndex(proc, "."); i >= 0 {
		if n, err := strconv.Atoi(proc[i+1:]); err == nil {
			job, rank = proc[:i], n
		}
	}
	in.mu.Lock()
	sys := in.sys
	in.mu.Unlock()
	app, err := sys.RankApp(job, rank)
	if err != nil {
		return err
	}
	app.Process().Kill()
	return nil
}

// WrapReporter implements core.Options.WrapReporter: each node's status
// reporter is tapped so armed heartbeat faults apply on the way to the
// registry.
func (in *Injector) WrapReporter(host string, r monitor.Reporter) monitor.Reporter {
	return &tap{in: in, host: host, inner: r}
}

// armTap mutates a host's pending heartbeat interference.
func (in *Injector) armTap(host string, f func(*tapState)) {
	in.mu.Lock()
	t := in.taps[host]
	if t == nil {
		t = &tapState{}
		in.taps[host] = t
	}
	f(t)
	in.mu.Unlock()
}

type tapAction int

const (
	tapPass tapAction = iota
	tapDrop
	tapDup
	tapDelay
)

// takeStatus consumes one pending action for a host's next status report.
func (in *Injector) takeStatus(host string) (tapAction, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	t := in.taps[host]
	if t == nil {
		return tapPass, 0
	}
	switch {
	case t.drop > 0:
		t.drop--
		return tapDrop, 0
	case t.dup > 0:
		t.dup--
		return tapDup, 0
	case t.delay > 0:
		t.delay--
		return tapDelay, t.delayBy
	}
	return tapPass, 0
}

// tap is the per-host monitor.Reporter wrapper.
type tap struct {
	in    *Injector
	host  string
	inner monitor.Reporter
}

func (t *tap) RegisterHost(host string, static proto.StaticInfo) error {
	return t.inner.RegisterHost(host, static)
}

func (t *tap) ReportStatus(host string, status proto.Status) error {
	switch act, d := t.in.takeStatus(t.host); act {
	case tapDrop:
		t.in.cfg.Metrics.Counter(CtrStatusDropped).Inc()
		return nil // swallowed; the lease absorbs a bounded gap
	case tapDup:
		t.in.cfg.Metrics.Counter(CtrStatusDuplicated).Inc()
		if err := t.inner.ReportStatus(host, status); err != nil {
			return err
		}
	case tapDelay:
		t.in.cfg.Metrics.Counter(CtrStatusDelayed).Inc()
		t.in.cfg.Clock.Sleep(d)
	case tapPass:
		// No fault armed: the report falls through untouched.
	}
	return t.inner.ReportStatus(host, status)
}

func (t *tap) UnregisterHost(host string) error {
	return t.inner.UnregisterHost(host)
}
