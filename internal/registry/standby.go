package registry

import (
	"fmt"

	"autoresched/internal/persist"
)

// Standby is the warm half of a registry HA pair: a shadow registry that
// follows the primary's change log through the shared store — snapshot
// bootstrap, then incremental sequence-numbered catch-up — and can be
// promoted when the primary dies. Promotion fences the store's epoch first,
// so any append the deposed primary still attempts (including the durable
// commit of a gang reservation) fails with persist.ErrFenced; reservations
// the primary left unresolved are presumed aborted by the promoted
// registry, and the pair can therefore never admit the same gang twice.
//
// The shadow registry is passive while standing by: no parent, commands or
// events side effect fires from replay (records go through applyLocked, the
// same state move the primary made, without the public methods' runtime
// effects), and the store is attached — making it the writing primary — only
// at Promote.
type Standby struct {
	store persist.Store
	r     *Registry
}

// NewStandby builds a warm standby following store. opts configure the
// registry that Promote will return; a WithStore among them is ignored
// (the standby attaches the store itself, at promotion). The initial
// snapshot+suffix catch-up runs before NewStandby returns.
func NewStandby(store persist.Store, opts ...Option) (*Standby, error) {
	// The last option wins: a follower makes no appends until promotion.
	follower := append(opts[:len(opts):len(opts)], WithStore(nil))
	s := &Standby{store: store, r: NewRegistry(follower...)}
	if _, err := s.Sync(); err != nil {
		return nil, err
	}
	return s, nil
}

// Sync pulls every change the primary persisted since the last Sync and
// applies it to the shadow state, reloading from the snapshot when the
// primary compacted past the standby's position. Returns the sequence the
// standby is now caught up to.
func (s *Standby) Sync() (uint64, error) {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.catchUpLocked(s.store)
	return r.lastApplied, err
}

// Registry returns the shadow registry for inspection (Health, Hosts,
// StateDigest). Mutating it before Promote is a caller error.
func (s *Standby) Registry() *Registry { return s.r }

// Promote turns the standby into the primary: the store's epoch is fenced
// (deposing the old primary — its in-flight appends and gang commits now
// fail), a final catch-up applies everything the old primary managed to
// persist, reservations it left unresolved are presumed aborted, and the
// now-writing registry is returned.
func (s *Standby) Promote() (*Registry, error) {
	epoch, err := s.store.Fence()
	if err != nil {
		return nil, fmt.Errorf("registry: promote: fence: %w", err)
	}
	if _, err := s.Sync(); err != nil {
		return nil, fmt.Errorf("registry: promote: final sync: %w", err)
	}
	r := s.r
	r.mu.Lock()
	r.store = s.store
	r.storeEpoch = epoch
	if err := r.presumeAbortLocked(); err != nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: promote: presumed abort: %w", err)
	}
	ev := RestartEvent{
		Recovered: true,
		Seq:       r.lastApplied,
		Hosts:     len(r.hosts),
		Procs:     r.nprocs,
	}
	hosts := ev.Hosts
	r.mu.Unlock()
	r.ctr.promotions.Inc()
	r.cfg.metrics.Gauge(MetricHosts).Set(float64(hosts))
	r.traceWith(ev, EventPromoted, "", 0, "",
		fmt.Sprintf("standby promoted at epoch %d, seq %d: %d hosts, %d procs", epoch, ev.Seq, ev.Hosts, ev.Procs))
	return r, nil
}
