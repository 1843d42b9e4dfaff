package hpcm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The paper positions its design as extensible "for checkpointing-based or
// mobile computing systems" and lists fault tolerance ("reschedule when the
// machine will shut down") among the Grid motivations (Sections 1 and 6).
// This file adds that extension: at a poll-point a process can write its
// state image (image.go — the same bytes a migration streams) to a
// checkpoint store instead of (or in addition to) migrating, and a new
// incarnation can later be restored from the store on any host — the
// recovery path when a host dies instead of being gracefully drained.

// ErrKilled reports that the incarnation was terminated by Kill — the
// simulated host crash.
var ErrKilled = errors.New("hpcm: process killed")

// ErrPreempted reports that the incarnation stopped at a poll-point because
// the control plane evicted it: its state was checkpointed (when a store is
// configured) and the job should be requeued and later restored. It is
// deliberately NOT Recoverable — the rescheduler must not burn failover
// retries on a deliberate eviction; the job layer owns the requeue.
var ErrPreempted = errors.New("hpcm: process preempted")

// CheckpointStore persists checkpoint images by application name.
type CheckpointStore interface {
	Save(app string, data []byte) error
	// Load returns the most recent image, or ok=false if none exists.
	Load(app string) (data []byte, ok bool, err error)
}

// MemStore is an in-memory CheckpointStore.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Save implements CheckpointStore.
func (s *MemStore) Save(app string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[app] = append([]byte(nil), data...)
	return nil
}

// Load implements CheckpointStore.
func (s *MemStore) Load(app string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[app]
	return data, ok, nil
}

// FileStore keeps one checkpoint file per application under a directory.
type FileStore struct{ Dir string }

func (s FileStore) path(app string) string {
	return filepath.Join(s.Dir, app+".ckpt")
}

// Save implements CheckpointStore with an atomic rename.
func (s FileStore) Save(app string, data []byte) error {
	tmp := s.path(app) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, s.path(app))
}

// Load implements CheckpointStore.
func (s FileStore) Load(app string) ([]byte, bool, error) {
	data, err := os.ReadFile(s.path(app))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// Evict asks the process to stop at its next poll-point for preemption:
// it writes a final checkpoint there (when a store is configured) and
// returns ErrPreempted out of Main. The caller — the job control plane —
// requeues the job and later restores it from the checkpoint (or cold-
// restarts it) once capacity frees up.
func (p *Process) Evict() {
	p.evictReq.Store(true)
}

// maybeCheckpoint runs at poll-points: on request or when the automatic
// interval has elapsed, collect and persist the state.
func (c *Context) maybeCheckpoint(label string) error {
	p := c.proc
	mw := p.mw
	if mw.ckptStore == nil {
		return nil
	}
	requested := p.ckptReq.CompareAndSwap(true, false)
	if !requested && mw.ckptEvery > 0 {
		p.mu.Lock()
		due := mw.clock.Since(p.lastCkpt) >= mw.ckptEvery
		p.mu.Unlock()
		requested = due
	}
	if !requested {
		return nil
	}
	return c.checkpointNow(label)
}

// checkpointNow collects and persists the state unconditionally. It also
// runs right before a migration starts, so an aborted migration can fall
// back to state no older than the triggering poll-point.
func (c *Context) checkpointNow(label string) error {
	p := c.proc
	mw := p.mw
	if mw.ckptStore == nil {
		return errors.New("hpcm: no checkpoint store configured")
	}
	if mw.metrics != nil {
		start := mw.clock.Now()
		defer func() {
			mw.metrics.Histogram(MetricCheckpointSeconds).Observe(mw.clock.Since(start).Seconds())
		}()
	}
	mw.observeCheckpoint(CheckpointEvent{Proc: p.name, Host: c.env.Host, Label: label, Begin: true})
	// A fault trap keyed on the begin event may have crashed this host
	// synchronously: the in-progress checkpoint is lost with it, and
	// recovery falls back to the previous image.
	if p.killed.Load() {
		return ErrKilled
	}
	img, err := c.collect(label, "")
	if err != nil {
		return fmt.Errorf("hpcm: checkpoint collection: %w", err)
	}
	data, err := img.marshal()
	if err != nil {
		return fmt.Errorf("hpcm: checkpoint encoding: %w", err)
	}
	if err := mw.ckptStore.Save(p.name, data); err != nil {
		return fmt.Errorf("hpcm: checkpoint save: %w", err)
	}
	p.mu.Lock()
	p.lastCkpt = mw.clock.Now()
	p.ckpts++
	p.mu.Unlock()
	mw.observeCheckpoint(CheckpointEvent{Proc: p.name, Host: c.env.Host, Label: label})
	return nil
}

// Checkpoints reports how many checkpoints have been written.
func (p *Process) Checkpoints() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ckpts
}

// Kill terminates the process's current incarnation — the stand-in for a
// host crash. Outstanding and future Compute calls and poll-points fail
// with ErrKilled, and Wait returns ErrKilled.
func (p *Process) Kill() {
	p.killed.Store(true)
	p.mu.Lock()
	hp := p.hostProc
	p.mu.Unlock()
	hp.Exit() // unblock an in-flight Compute
}

// Restore starts a new process from the latest checkpoint of app in store:
// the recovery path after Kill (or a lost host). The application main must
// be the same program that wrote the checkpoint.
func (m *Middleware) Restore(store CheckpointStore, app, host string, main Main) (*Process, error) {
	data, ok, err := store.Load(app)
	if err != nil {
		return nil, fmt.Errorf("hpcm: checkpoint load: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("hpcm: no checkpoint for %q", app)
	}
	img, saved, err := unmarshalImage(data)
	if err != nil {
		return nil, fmt.Errorf("hpcm: checkpoint decoding: %w", err)
	}
	return m.launch(app, host, main, img, saved)
}
