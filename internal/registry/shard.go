package registry

import (
	"time"

	"autoresched/internal/proto"
)

// Domain sharding (Section 3.2's hierarchical arrangement, promoted from
// examples/hierarchy into the registry itself). A child registry configured
// with Parent+Domain pushes its Health summary upward — piggybacked on
// status refreshes, at most once per healthReportEvery — and the parent
// keeps one soft-state domainEntry per child. The lease mirrors the
// host-level push model: a domain whose child stops heartbeating expires
// and is skipped by delegation, with no teardown protocol.

// healthReportEvery caps how often a child pushes Health to its parent: the
// monitor's refresh cadence.
const healthReportEvery = 10 * time.Second

type domainEntry struct {
	name     string
	child    *Registry
	health   Health
	lastSeen time.Time
	regOrder int
}

// DomainInfo is the parent's view of one child domain.
type DomainInfo struct {
	Name     string
	Health   Health
	LastSeen time.Time
	// Live reports whether the domain's lease was fresh at snapshot time.
	Live bool
}

// ReportDomainHealth records (or refreshes) a child domain's health summary
// and renews its lease. It is the domain-level analogue of ReportStatus and
// doubles as registration: an unknown domain is attached in arrival order,
// which is how children re-announce themselves after a parent Restart.
func (r *Registry) ReportDomainHealth(name string, child *Registry, h Health) {
	if name == "" || child == nil {
		return
	}
	r.mu.Lock()
	if err := r.applyLocked(&recDomainHealth{Name: name, Health: h, At: r.clock.Now()}); err != nil {
		// A fenced parent is logically dead; dropping the attach is the
		// correct refusal (the child will report to the promoted parent).
		r.mu.Unlock()
		return
	}
	r.domains[name].child = child
	r.mu.Unlock()
	r.ctr.healthReports.Inc()
}

// Domains returns the parent's view of its child domains, in attach order.
func (r *Registry) Domains() []DomainInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	out := make([]DomainInfo, 0, len(r.domainOrder))
	for _, d := range r.domainOrder {
		out = append(out, DomainInfo{
			Name:     d.name,
			Health:   d.health,
			LastSeen: d.lastSeen,
			Live:     r.domainAliveLocked(d, now),
		})
	}
	return out
}

// domainAliveLocked: a child domain's lease is the host lease.
func (r *Registry) domainAliveLocked(d *domainEntry, now time.Time) bool {
	return now.Sub(d.lastSeen) <= r.cfg.Lease
}

// placeDomains delegates a placement across this registry's live child
// domains, in attach order, skipping the domain the request escalated from
// (its hosts were already searched) and domains whose last-reported Health
// offers no capacity. Each child is consulted for its own hosts only; the
// parent, not the child, owns the cross-domain walk. Children are called
// with no lock held, so sibling registries never nest locks.
func (r *Registry) placeDomains(skip, exclude string, proc ProcInfo) (proto.Candidate, bool) {
	r.mu.Lock()
	now := r.clock.Now()
	children := make([]*Registry, 0, len(r.domainOrder))
	for _, d := range r.domainOrder {
		if d.name == skip || !r.domainAliveLocked(d, now) || !d.health.AcceptsMigrations() {
			continue
		}
		// A domain restored from the change log has no live child pointer
		// until its next health report rebinds it; skip it meanwhile.
		if d.child == nil {
			continue
		}
		children = append(children, d.child)
	}
	r.mu.Unlock()

	for _, child := range children {
		if cand, ok := child.placeLocal(exclude, proc); ok {
			return cand, true
		}
	}
	return proto.Candidate{}, false
}

// healthDueLocked decides whether this child registry owes its parent a
// health push, and computes the summary if so. The push itself happens
// outside the lock (ReportStatus/ReportStatusBatch), so the child's lock is
// released before the parent's is taken.
func (r *Registry) healthDueLocked() (bool, Health) {
	if r.cfg.Parent == nil || r.cfg.Domain == "" {
		return false, Health{}
	}
	now := r.clock.Now()
	if r.healthPushed && now.Sub(r.lastHealthPush) < healthReportEvery {
		return false, Health{}
	}
	r.healthPushed = true
	r.lastHealthPush = now
	return true, r.healthLocked()
}
