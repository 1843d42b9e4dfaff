package registry

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Gang placement: all-or-nothing reservation of n hosts for a multi-process
// job. Admission is two-phase — Reserve marks the hosts so concurrent
// admissions (and the migration scheduler's destination scans) cannot
// double-book them while the job's eviction or launch work is in flight,
// then Commit re-checks liveness and releases the marks to the launching
// caller, or Abort rolls them back. A host that unregisters or loses its
// lease mid-reservation poisons the reservation: Commit fails and the
// caller retries admission from scratch, so no orphaned reservation marks
// survive a crashed host.

// GangReservation is a pending all-or-nothing hold on a set of hosts.
// It is created by PlaceGang or ReserveHosts and resolved exactly once by
// Commit or Abort.
type GangReservation struct {
	r     *Registry
	hosts []string
	// id names the reservation in the durable change log (0 without a
	// store); presumed abort resolves ids left open by a crashed
	// incarnation.
	id uint64

	// Guarded by r.mu.
	resolved bool
	lost     []string // hosts that died while reserved
}

// Hosts returns the reserved hosts, in reservation order.
func (g *GangReservation) Hosts() []string {
	return append([]string(nil), g.hosts...)
}

// ErrReservationLost reports that a reserved host unregistered or expired
// before Commit.
var ErrReservationLost = errors.New("registry: gang reservation lost a host")

// Commit resolves the reservation for launch: it re-checks that every
// reserved host is still registered and lease-fresh, then releases the
// reservation marks to the caller (which immediately registers the gang's
// processes). If any host was lost while reserved, every mark is rolled
// back and Commit reports ErrReservationLost — the all-or-nothing failure
// that keeps a half-dead gang from launching.
func (g *GangReservation) Commit() error {
	r := g.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if g.resolved {
		return errors.New("registry: gang reservation already resolved")
	}
	g.resolved = true
	now := r.clock.Now()
	lost := append([]string(nil), g.lost...)
	for _, h := range g.hosts {
		e, ok := r.hosts[h]
		if !ok || !r.aliveLocked(e, now) {
			lost = append(lost, h)
		}
	}
	r.releaseLocked(g)
	if len(lost) > 0 {
		// Resolve the reservation as aborted in the durable log (unless a
		// bootstrap's presumed abort already did).
		_ = r.resolveLocked(g.id, false)
		sort.Strings(lost)
		return fmt.Errorf("%w: %v", ErrReservationLost, lost)
	}
	// The durable commit record is the admission's point of no return: a
	// deposed primary's append fails with persist.ErrFenced here, which is
	// what keeps a promoted standby (that presumed this reservation
	// aborted) from ever seeing the same gang admitted twice.
	if err := r.resolveLocked(g.id, true); err != nil {
		return fmt.Errorf("registry: gang commit rejected: %w", err)
	}
	return nil
}

// Abort rolls the reservation back, freeing every still-held host. Safe to
// call after a failed Commit (it is then a no-op).
func (g *GangReservation) Abort() {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	if g.resolved {
		return
	}
	g.resolved = true
	g.r.releaseLocked(g)
	// A fenced abort still aborts: the promoted standby's presumed abort
	// already resolved the reservation durably.
	_ = g.r.resolveLocked(g.id, false)
}

// releaseLocked drops every reservation mark still pointing at g.
func (r *Registry) releaseLocked(g *GangReservation) {
	for _, h := range g.hosts {
		if r.reserved[h] == g {
			delete(r.reserved, h)
		}
	}
}

// reservedLocked reports whether a host is currently held by a pending
// reservation (candidate scans skip such hosts).
func (r *Registry) reservedLocked(host string) bool {
	_, ok := r.reserved[host]
	return ok
}

// Reserved returns the hosts currently held by pending reservations, sorted.
// Chaos scenarios use it to assert that rollbacks leave nothing orphaned.
func (r *Registry) Reserved() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.reserved))
	for h := range r.reserved {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// PlaceGang atomically selects and reserves n eligible hosts for proc: the
// first n in registration order that are alive, unreserved, not excluded and
// pass proc's schema requirements. The whole select-and-mark runs under one
// lock acquisition, so two concurrent admissions can never reserve
// overlapping host sets. A fenced store refuses the reservation.
func (r *Registry) PlaceGang(proc ProcInfo, n int, exclude func(host string) bool) (*GangReservation, bool) {
	if n <= 0 {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The names go straight into the slice the reservation keeps.
	hosts := gangCandidatesLocked(r, make([]string, 0, n), proc, n, exclude, func(e *hostEntry) string {
		return e.info.Name
	})
	if len(hosts) != n {
		return nil, false
	}
	g, err := r.reserveLocked(hosts)
	return g, err == nil
}

// EligibleHosts snapshots the hosts a gang of proc's ranks may be placed
// on: alive, not held by a pending reservation, not excluded, and passing
// proc's schema requirements (a nil schema passes everywhere). The job
// dispatcher builds its planner view from it — with a zero ProcInfo it
// lists the whole schedulable fleet in registration order, each host as
// its name and the fields a schema is checked against (HostFit), in one
// allocation.
func (r *Registry) EligibleHosts(proc ProcInfo, exclude func(host string) bool) []HostFit {
	r.mu.Lock()
	defer r.mu.Unlock()
	return gangCandidatesLocked(r, make([]HostFit, 0, len(r.order)), proc, 0, exclude, func(e *hostEntry) HostFit {
		h := &e.info
		return HostFit{Name: h.Name, MemTotal: h.Static.MemTotal, DiskAvail: h.Status.DiskAvail,
			CPUSpeed: h.Static.CPUSpeed, Software: h.Static.Software}
	})
}

// gangCandidatesLocked appends the first n hosts a gang may be placed on.
// Unlike a migration's destination scan it considers every alive host, not
// just the Free set: gang occupancy is the job layer's bookkeeping (passed
// in through exclude), not the monitors' load classification.
func gangCandidatesLocked[T any](r *Registry, dst []T, proc ProcInfo, n int, exclude func(string) bool, take func(*hostEntry) T) []T {
	return candidatesLocked(r, dst, r.order, proc, n, func(e *hostEntry) bool {
		return exclude == nil || !exclude(e.info.Name)
	}, take)
}

// ReserveHosts atomically reserves the named hosts — including currently
// occupied ones, which is how a preempting admission pins the contested
// hosts it is evicting victims from. All-or-nothing: every host must be
// registered, lease-fresh and unreserved, or nothing is reserved.
func (r *Registry) ReserveHosts(hosts []string) (*GangReservation, error) {
	if len(hosts) == 0 {
		return nil, errors.New("registry: ReserveHosts with no hosts")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reserveLocked(append([]string(nil), hosts...))
}

// reserveLocked is the one all-or-nothing reservation; it takes ownership of
// hosts. Every host must be distinct, registered, lease-fresh and unreserved
// — the same check for a caller's explicit list and for PlaceGang's pick —
// then the reservation is journalled (a fenced store refuses it, with an
// error that wraps persist.ErrFenced, and nothing is marked) and only then
// are the host marks set. A gang is a handful of hosts, so a host is checked
// for a duplicate against the ones before it.
func (r *Registry) reserveLocked(hosts []string) (*GangReservation, error) {
	now := r.clock.Now()
	for i, h := range hosts {
		if slices.Contains(hosts[:i], h) {
			return nil, fmt.Errorf("registry: duplicate host %q in gang", h)
		}
		e, ok := r.hosts[h]
		if !ok || !r.aliveLocked(e, now) {
			return nil, fmt.Errorf("registry: host %q not available for reservation", h)
		}
		if r.reservedLocked(h) {
			return nil, fmt.Errorf("registry: host %q already reserved", h)
		}
	}
	g := &GangReservation{r: r, hosts: hosts}
	if r.store != nil {
		id := r.gangSeq + 1
		r.reserve = recGangReserve{ID: id, Hosts: hosts}
		if err := r.applyLocked(&r.reserve); err != nil {
			return nil, fmt.Errorf("registry: reservation rejected: %w", err)
		}
		g.id = id
	}
	for _, h := range hosts {
		r.reserved[h] = g
	}
	return g, nil
}

// resolveLocked resolves reservation id in the durable log, committed or
// aborted, through the registry's one resolve record.
func (r *Registry) resolveLocked(id uint64, commit bool) error {
	r.resolve = recGangResolve{ID: id, Commit: commit}
	return r.applyLocked(&r.resolve)
}
