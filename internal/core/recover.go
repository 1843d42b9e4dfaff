package core

import (
	"errors"
	"fmt"

	"autoresched/internal/hpcm"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// Recover restores an application from its latest checkpoint onto a host —
// the rescheduling-for-fault-tolerance path of Section 6: when a host dies
// instead of being gracefully drained, its processes restart elsewhere from
// persisted state instead of from the beginning.
//
// host may be empty, in which case the registry/scheduler's first-fit
// search picks the destination (excluding the host the app last ran on).
// main must be the same program that wrote the checkpoint, and sch its
// schema (may be nil).
func (s *System) Recover(name, host string, sch *rules.Schema, main hpcm.Main) (*App, error) {
	if s.opts.Checkpoints == nil {
		return nil, errors.New("core: no checkpoint store configured")
	}
	exclude := ""
	s.mu.Lock()
	for _, app := range s.apps {
		if app.Process().Name() == name {
			exclude = app.Host()
		}
	}
	s.mu.Unlock()

	if host == "" {
		cand, ok := s.reg.FirstFit(exclude, registry.ProcInfo{Name: name, Schema: sch})
		if !ok {
			return nil, fmt.Errorf("core: no host fits to recover %q", name)
		}
		host = cand.Host
	}
	// Recover never cold-starts: without an image there is nothing to recover.
	if _, ok, err := s.opts.Checkpoints.Load(name); err != nil {
		return nil, fmt.Errorf("core: checkpoint load for %q: %w", name, err)
	} else if !ok {
		return nil, fmt.Errorf("core: no checkpoint for %q", name)
	}
	app, err := s.startApp(name, host, sch, main, true)
	if err != nil {
		return nil, err
	}
	vclock.Go(s.clock, app.follow)
	return app, nil
}
