// Package monitor implements the per-host monitoring entity (Sections 3.1
// and 4, Figure 2): a system-information gathering engine, the monitoring
// information database, the rule evaluator, and the local state machine.
// Each cycle — one fixed monitoring frequency — the monitor gathers a
// snapshot, decides the host state through its rule engine, stores the
// sample, and pushes a soft-state refresh to its registry/scheduler.
package monitor

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// Reporter is where registrations and status refreshes go: the in-process
// registry, or a proto client speaking the XML protocol to a remote one.
type Reporter interface {
	RegisterHost(host string, static proto.StaticInfo) error
	ReportStatus(host string, status proto.Status) error
	UnregisterHost(host string) error
}

// Charger optionally charges the monitor's own gathering cost to the host
// it runs on, so the rescheduler's overhead is visible in the host's load —
// the quantity Figure 5 measures.
type Charger interface {
	Compute(work float64) error
}

// config is what the Options write into: one field per setting, each
// described (with its default) here.
type config struct {
	// host is the monitored host's name. Required.
	host string
	// source provides raw system information. Required.
	source sysinfo.Source
	// engine evaluates the host state; nil uses a permanently-free engine.
	engine *rules.Engine
	// reporter receives registration and refreshes; nil disables reporting
	// (the monitor still maintains local state).
	reporter Reporter
	// clock drives the cycle; nil selects the real clock.
	clock vclock.Clock
	// frequency is the cycle period; zero selects 10 s, the sampling
	// interval of the paper's experiments.
	frequency time.Duration
	// historySize bounds the monitoring information database; zero
	// selects 256 samples.
	historySize int
	// charger, if set, is charged gatherCost work units per cycle.
	charger Charger
	// gatherCost is the CPU cost of one gathering cycle in host work
	// units (the scripts the paper fires are not free).
	gatherCost float64
	// commandAddr is the local commander's endpoint, sent at registration
	// so the registry can order migrations.
	commandAddr string
	// software lists locally installed packages for requirement matching.
	software []string
	// metrics, when set, receives the monitor/cycle_seconds histogram
	// (virtual-clock duration of one gather-evaluate-report cycle) and the
	// monitor/reregisters counter. Nil disables.
	metrics *metrics.Registry
}

// MetricCycleSeconds is the virtual-time duration of one monitor cycle —
// the per-host rescheduler overhead Figure 5 measures.
const MetricCycleSeconds = "monitor/cycle_seconds"

// CtrReregisters counts the re-registrations a monitor performed after the
// registry rejected a refresh as unregistered (it restarted without a
// durable store).
const CtrReregisters = "monitor/reregisters"

// Sample is one monitoring-database record.
type Sample struct {
	Snap  sysinfo.Snapshot
	Grade rules.Grade
	State rules.State
}

// Monitor is the monitoring entity of one host.
type Monitor struct {
	cfg    config
	sensor *sysinfo.Sensor
	clock  vclock.Clock

	mu sync.Mutex
	// history is a ring of the last historySize samples: it grows to the
	// bound, then the sample of cycle n overwrites slot (n-1) % historySize.
	history []Sample
	cycles  int
	stop    *vclock.Event
	stopped *vclock.Event
}

// Start registers the host (one-time static information) and begins the
// monitoring loop.
func (m *Monitor) Start() error {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return errors.New("monitor: already started")
	}
	m.stop = new(vclock.Event)
	m.stopped = new(vclock.Event)
	stop := m.stop
	m.mu.Unlock()

	if m.cfg.reporter != nil {
		if err := m.register(); err != nil {
			return fmt.Errorf("monitor: registration: %w", err)
		}
	}
	vclock.Go(m.clock, func() { m.loop(stop) })
	return nil
}

// register pushes the host's one-time static information to the reporter.
func (m *Monitor) register() error {
	st := m.cfg.source.Static()
	static := proto.StaticInfo{
		Addr:     m.cfg.commandAddr,
		OS:       st.OS,
		Arch:     st.Arch,
		CPUSpeed: st.CPUSpeed,
		MemTotal: st.MemTotal,
		Software: m.cfg.software,
	}
	return m.cfg.reporter.RegisterHost(m.cfg.host, static)
}

// Stop halts the loop and unregisters the host.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop := m.stop
	stopped := m.stopped
	m.stop = nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	stop.Fire()
	vclock.Await(m.clock, stopped)
	if m.cfg.reporter != nil {
		_ = m.cfg.reporter.UnregisterHost(m.cfg.host)
	}
}

func (m *Monitor) loop(stop *vclock.Event) {
	defer m.stopped.Fire()
	for {
		m.Cycle()
		if vclock.Wait(m.clock, m.cfg.frequency, stop) != nil {
			return
		}
	}
}

// Cycle performs one gather-evaluate-report cycle and returns the sample.
// The loop calls it periodically; tests and the pull-mode registry may call
// it directly.
func (m *Monitor) Cycle() (Sample, error) {
	if m.cfg.metrics != nil {
		start := m.clock.Now()
		defer func() {
			m.cfg.metrics.Histogram(MetricCycleSeconds).Observe(m.clock.Now().Sub(start).Seconds())
		}()
	}
	if m.cfg.charger != nil && m.cfg.gatherCost > 0 {
		// The gathering scripts consume CPU on the monitored host; this is
		// the rescheduler overhead of Figure 5.
		if err := m.cfg.charger.Compute(m.cfg.gatherCost); err != nil {
			return Sample{}, fmt.Errorf("monitor: charge: %w", err)
		}
	}
	snap, err := m.sensor.Gather()
	if err != nil {
		return Sample{}, err
	}
	grade, err := m.cfg.engine.Evaluate(snap)
	if err != nil {
		return Sample{}, err
	}
	sample := Sample{Snap: snap, Grade: grade, State: grade.State()}

	m.mu.Lock()
	if len(m.history) < m.cfg.historySize {
		m.history = append(m.history, sample)
	} else {
		m.history[m.cycles%m.cfg.historySize] = sample
	}
	m.cycles++
	m.mu.Unlock()

	if m.cfg.reporter != nil {
		status := StatusFromSample(sample)
		err := m.cfg.reporter.ReportStatus(m.cfg.host, status)
		if err != nil && isUnregistered(err) {
			// The registry restarted and lost its soft state (Section 3.1's
			// soft-state registration makes this survivable): re-register
			// the host and retry the refresh once.
			if rerr := m.register(); rerr == nil {
				m.cfg.metrics.Counter(CtrReregisters).Inc()
				err = m.cfg.reporter.ReportStatus(m.cfg.host, status)
			}
		}
		if err != nil {
			return sample, err
		}
	}
	return sample, nil
}

// isUnregistered matches the registry's rejection of a status refresh from
// a host it does not know — locally or through the XML protocol's remote
// error wrapping.
func isUnregistered(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unregistered host")
}

// StatusFromSample converts a sample into the protocol's status payload.
func StatusFromSample(s Sample) proto.Status {
	return proto.Status{
		State:       s.State.String(),
		Grade:       float64(s.Grade),
		Load1:       s.Snap.Load1,
		Load5:       s.Snap.Load5,
		CPUUtilPct:  s.Snap.CPUUtilPct,
		NumProcs:    s.Snap.NumProcs,
		Sockets:     s.Snap.Sockets,
		NetInMBps:   s.Snap.NetRecvBps / 1e6,
		NetOutMBps:  s.Snap.NetSentBps / 1e6,
		MemAvailPct: s.Snap.MemAvailPct,
		MemAvail:    s.Snap.MemAvail,
	}
}
