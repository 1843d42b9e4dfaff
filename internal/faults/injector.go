package faults

import (
	"fmt"
	"sync"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/events"
	"autoresched/internal/hpcm"
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
	// Events, when set, receives every applied fault and fired trap on the
	// unified runtime sink (Source "faults") — pass the same sink as
	// core.Options.Events to see faults interleaved with the decisions and
	// migrations they provoke.
	Events events.Sink
}

// Counter names the injector increments on Config.Metrics, one per
// heartbeat fault applied on the monitor->registry path.
const (
	CtrStatusDropped    = "monitor/status_dropped"
	CtrStatusDuplicated = "monitor/status_duplicated"
	CtrStatusDelayed    = "monitor/status_delayed"
)

// Injector applies a Plan against a bound core.System in virtual time.
//
// Construction order matters because the injector and the system reference
// each other:
//
//	in := faults.NewInjector(faults.Config{Clock: clock, Metrics: mreg})
//	sys, _ := core.New(core.Options{
//		WrapReporter: in.WrapReporter,
//		Events:       in.Sink(),
//		...
//	})
//	in.Bind(sys)
//	app, _ := sys.Launch("test_tree", ...)
//	in.BindApp("test_tree", app)
//	in.Run(plan)
type Injector struct {
	cfg Config

	mu        sync.Mutex
	sys       *core.System
	apps      map[string]*core.App
	taps      map[string]*tapState
	traps     []*phaseTrap
	applied   []string
	triggered []string
	running   bool

	stop chan struct{}
	done chan struct{}
}

// tapState is the pending per-host heartbeat interference, consumed one
// report at a time (drops first, then duplicates, then delays).
type tapState struct {
	drop    int
	dup     int
	delay   int
	delayBy time.Duration
}

// phaseTrap is an armed one-shot crash-on-migration-phase trigger. round,
// when positive, narrows a precopy trap to one exact round.
type phaseTrap struct {
	proc   string
	phase  string
	round  int
	target string
	fired  bool
}

// NewInjector creates an unbound injector.
func NewInjector(cfg Config) *Injector {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	return &Injector{
		cfg:  cfg,
		apps: make(map[string]*core.App),
		taps: make(map[string]*tapState),
		stop: make(chan struct{}),
		done: make(chan struct{}),
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
	go func() {
		defer close(in.done)
		var elapsed time.Duration
		for _, ev := range evs {
			if d := ev.After - elapsed; d > 0 {
				timer := in.cfg.Clock.NewTimer(d)
				select {
				case <-timer.C:
				case <-in.stop:
					timer.Stop()
					return
				}
				elapsed = ev.After
			}
			in.apply(ev)
		}
	}()
}

// Done is closed once every scheduled event has been applied.
func (in *Injector) Done() <-chan struct{} { return in.done }

// Stop abandons any not-yet-applied events.
func (in *Injector) Stop() {
	in.mu.Lock()
	select {
	case <-in.stop:
	default:
		close(in.stop)
	}
	in.mu.Unlock()
}

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

// apply executes one event and records it.
func (in *Injector) apply(ev Event) {
	in.mu.Lock()
	sys := in.sys
	in.mu.Unlock()

	var err error
	switch ev.Kind {
	case KindCrashHost:
		err = sys.CrashHost(ev.Host)
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
	case KindCrashOnPhase:
		in.mu.Lock()
		in.traps = append(in.traps, &phaseTrap{proc: ev.Proc, phase: ev.Phase, round: ev.Round, target: ev.Target})
		in.mu.Unlock()
	default:
		err = fmt.Errorf("faults: unknown kind %q", ev.Kind)
	}

	line := ev.String()
	if err != nil {
		line += " error=" + err.Error()
	}
	in.mu.Lock()
	in.applied = append(in.applied, line)
	in.mu.Unlock()
	if in.cfg.Events != nil {
		in.cfg.Events.Publish(events.Event{
			Time:   in.cfg.Clock.Now(),
			Source: events.SourceFaults,
			Kind:   string(ev.Kind),
			Host:   ev.Host,
			Dest:   ev.Dest,
			Proc:   ev.Proc,
			Note:   line,
			Err:    err,
		})
	}
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

// Sink returns the injector's subscription for core.Options.Events
// (compose it with other consumers through events.Multi). It fires armed
// crash-on-phase traps on hpcm.MigrationEvent payloads, synchronously from
// the migrating goroutine, so the crash lands at the exact protocol step.
func (in *Injector) Sink() events.Sink {
	return events.On(func(ev hpcm.MigrationEvent) {
		in.mu.Lock()
		var victim string
		for _, tr := range in.traps {
			if tr.fired || tr.proc != ev.Proc || tr.phase != ev.Phase {
				continue
			}
			if tr.round > 0 && tr.round != ev.Round {
				continue
			}
			tr.fired = true
			if tr.target == "dest" {
				victim = ev.To
			} else {
				victim = ev.From
			}
			break
		}
		sys := in.sys
		in.mu.Unlock()
		if victim == "" {
			return
		}
		line := fmt.Sprintf("trap crash-host host=%s proc=%s phase=%s", victim, ev.Proc, ev.Phase)
		if sys != nil {
			if err := sys.CrashHost(victim); err != nil {
				line += " error=" + err.Error()
			}
		}
		in.mu.Lock()
		in.triggered = append(in.triggered, line)
		in.mu.Unlock()
		if in.cfg.Events != nil {
			in.cfg.Events.Publish(events.Event{
				Time:   in.cfg.Clock.Now(),
				Source: events.SourceFaults,
				Kind:   "trap",
				Host:   victim,
				Proc:   ev.Proc,
				Note:   line,
			})
		}
	})
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
