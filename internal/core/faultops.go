package core

import (
	"errors"
	"fmt"

	"autoresched/internal/hpcm"
	"autoresched/internal/persist"
	"autoresched/internal/registry"
)

// CrashHost simulates losing a host: its network goes down (in-flight
// transfers fail), its monitor stops refreshing the registry, and every
// application incarnation currently on it is killed. The crash is permanent
// for the run. Applications with failover budget left are recovered by
// their follow loops.
func (s *System) CrashHost(host string) error {
	if _, ok := s.cluster.Host(host); !ok {
		return fmt.Errorf("core: unknown cluster host %q", host)
	}
	if err := s.cluster.Net().SetDown(host, true); err != nil {
		return err
	}
	if node, ok := s.Node(host); ok {
		if node.charger != nil {
			node.charger.Exit() // unblock a monitoring cycle mid-charge
		}
		// Stopping the monitor also unregisters the host, so first-fit
		// searches (including failover's) never pick the dead host.
		node.Monitor.Stop()
	}
	s.mu.Lock()
	apps := append([]*App(nil), s.apps...)
	s.mu.Unlock()
	for _, app := range apps {
		proc := app.Process()
		if proc.Host() == host {
			proc.Kill()
		}
	}
	return nil
}

// RestartRegistry simulates a registry crash and restart. Without a
// configured Store the soft state is dropped: monitors re-register through
// their heartbeats and the runtime resyncs process registrations (triggered
// by the restart trace event). With a Store the restart is a crash-consistent
// bootstrap from snapshot + log suffix and no re-registration happens.
func (s *System) RestartRegistry() { s.reg.Restart() }

// Store returns the persistence store the system was configured with (nil
// for a purely soft-state control plane). Fault injectors use it to tear
// the log tail mid-run.
func (s *System) Store() persist.Store { return s.opts.Store }

// failover recovers an app after a recoverable failure: restore the last
// checkpoint onto a fresh first-fit candidate (cold-restart from the
// beginning when no checkpoint exists). Returns false when no host fits or
// the recovery itself fails; the caller then settles the app with its
// original error.
func (s *System) failover(app *App, cause error) bool {
	proc := app.Process()
	name := proc.Name()

	// Exclude the host the failure points at: the crashed host for a kill
	// or post-commit failure, the unreachable destination for an abort
	// (the source host is healthy and stays a legitimate candidate).
	exclude := app.Host()
	var mf *hpcm.MigrationFailure
	if errors.As(cause, &mf) && !mf.Committed {
		exclude = mf.To
	}

	cand, ok := s.reg.FirstFit(exclude, registry.ProcInfo{Name: name, Schema: app.Schema})
	if !ok {
		return false
	}
	if _, ok := s.Node(cand.Host); !ok {
		return false
	}

	p, restored, err := s.startProc(name, cand.Host, app.main, true)
	if err != nil {
		return false
	}
	if !restored {
		s.opts.Metrics.Counter(CtrColdRestarts).Inc()
	}

	app.rehome(p, cand.Host)
	_ = s.registerProc(app)
	return true
}

// resyncProcs re-registers every live application with the registry after
// it lost its soft state. Host registrations come back through the
// monitors' heartbeats, so process registration is retried across a few
// monitoring intervals until it sticks.
func (s *System) resyncProcs() {
	const attempts = 5
	s.mu.Lock()
	apps := append([]*App(nil), s.apps...)
	s.mu.Unlock()
	pending := make([]*App, 0, len(apps))
	for _, app := range apps {
		if !app.Settled().Fired() {
			pending = append(pending, app)
		}
	}
	for i := 0; i < attempts && len(pending) > 0; i++ {
		if i > 0 {
			s.clock.Sleep(monitorInterval)
		}
		still := pending[:0]
		for _, app := range pending {
			if err := s.registerProc(app); err != nil {
				still = append(still, app)
				continue
			}
			s.opts.Metrics.Counter(CtrProcResyncs).Inc()
		}
		pending = still
	}
}
