package registry

import (
	"fmt"

	"autoresched/internal/proto"
	"autoresched/internal/rules"
)

// shouldOffload decides whether a host's latest report asks for migration:
// under the default policy its rule-decided state is Overloaded (Table 1);
// under a threshold policy the policy's trigger and source preconditions
// hold.
func (r *Registry) shouldOffload(host string, e *hostEntry) (bool, error) {
	if r.cfg.policy == nil {
		return e.info.State.WantsOffload(), nil
	}
	if !r.cfg.policy.Migrate {
		return false, nil
	}
	return r.cfg.policy.ShouldMigrate(r.probes, e.info.Status.Snapshot(host))
}

// acceptsLocked decides whether a host is willing to receive a migration:
// state Free under the default policy, the policy's destination conditions
// otherwise.
func (r *Registry) acceptsLocked(e *hostEntry) bool {
	if r.cfg.policy == nil {
		return e.info.State.AcceptsMigration()
	}
	ok, err := r.cfg.policy.DestinationOK(r.probes, e.info.Status.Snapshot(e.info.Name))
	return ok && err == nil
}

// candidatesLocked is the one eligibility rule, as a stream over scan in
// registration order: a host qualifies when its lease is fresh, no pending
// gang reservation holds it (placing onto one would double-book it under the
// gang about to launch there), the caller's keep accepts it, and it owns the
// resources proc's schema requires (a nil schema fits everywhere). Migration
// destinations and gang placement both draw from it. The stream runs under
// the registry lock; see CandidateSeq.
func (r *Registry) candidatesLocked(scan []*hostEntry, proc ProcInfo, keep func(*hostEntry) bool) CandidateSeq {
	now := r.clock.Now()
	return func(yield func(HostInfo) bool) {
		for _, e := range scan {
			if !r.aliveLocked(e, now) || r.reservedLocked(e.info.Name) || !keep(e) {
				continue
			}
			if proc.Schema != nil {
				if ok, _ := proc.Schema.Fits(e.info.Static.MemTotal, e.info.Status.DiskAvail,
					e.info.Static.CPUSpeed, e.info.Static.Software); !ok {
					continue
				}
			}
			if !yield(e.info) {
				return
			}
		}
	}
}

// FirstFit finds a destination for proc, excluding the source host. Despite
// the historical name it runs the configured Scheduler: the local domain is
// searched first (migration destinations are preferred inside one's own
// control domain, Section 3.2), then the parent registry, which delegates
// upward in turn.
func (r *Registry) FirstFit(exclude string, proc ProcInfo) (proto.Candidate, bool) {
	if cand, ok := r.placeLocal(exclude, proc); ok {
		return cand, true
	}
	if r.cfg.parent != nil {
		return r.cfg.parent.FirstFit(exclude, proc)
	}
	return proto.Candidate{OK: false, Reason: "no host fits"}, false
}

// placeLocal asks the scheduler to place proc on one of this registry's own
// eligible hosts. Under the default policy only the Free state set is
// scanned — the indexed sets keep this cheap when most of a large cluster
// is busy.
func (r *Registry) placeLocal(exclude string, proc ProcInfo) (proto.Candidate, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	scan := r.order
	if r.cfg.policy == nil {
		scan = r.sets[rules.Free]
	}
	picked, ok := r.sched.Place(proc, 1, r.candidatesLocked(scan, proc, func(e *hostEntry) bool {
		return e.info.Name != exclude && r.acceptsLocked(e)
	}))
	if !ok || len(picked) != 1 {
		return proto.Candidate{}, false
	}
	return proto.Candidate{OK: true, Host: picked[0].Name, Addr: picked[0].Static.Addr}, true
}

// Candidate serves the pull-style consult: the overloaded host asks for a
// recommended destination for its selected process.
func (r *Registry) Candidate(host string) proto.Candidate {
	proc, ok := r.SelectProcess(host)
	if !ok {
		return proto.Candidate{OK: false, Reason: "no migration-enabled process registered"}
	}
	cand, _ := r.FirstFit(host, proc)
	return cand
}

// decide runs the scheduling decision for a host after a status refresh:
// warm-up damping, cooldown, process selection, destination choice, and
// finally the migrate order to the source host's commander.
func (r *Registry) decide(host string) {
	if r.cfg.metrics != nil {
		start := r.clock.Now()
		defer func() {
			r.cfg.metrics.Histogram(MetricDecideSeconds).Observe(r.clock.Since(start).Seconds())
		}()
	}
	r.mu.Lock()
	e, ok := r.hosts[host]
	if !ok {
		r.mu.Unlock()
		return
	}
	offload, err := r.shouldOffload(host, e)
	if err != nil || !offload {
		e.warmup = 0
		r.mu.Unlock()
		return
	}
	e.warmup++
	if e.warmup < r.cfg.warmup {
		warm := e.warmup
		r.mu.Unlock()
		r.trace(EventWarmup, host, 0, "", fmt.Sprintf("%d/%d reports", warm, r.cfg.warmup))
		return
	}
	now := r.clock.Now()
	if e.hasCmd && now.Sub(e.lastCmd) < r.cfg.cooldown {
		r.mu.Unlock()
		r.trace(EventCooldown, host, 0, "", "")
		return
	}
	r.mu.Unlock()

	proc, ok := r.SelectProcess(host)
	if !ok {
		r.trace(EventNoProcess, host, 0, "", "")
		return
	}
	cand, ok := r.FirstFit(host, proc)
	if !ok {
		r.mu.Lock()
		r.declined++
		r.mu.Unlock()
		r.trace(EventDeclined, host, proc.PID, "", "no host fits")
		return
	}
	order := proto.MigrateOrder{
		PID:      proc.PID,
		DestHost: cand.Host,
		DestAddr: cand.Addr,
	}
	if r.cfg.policy != nil {
		order.Policy = r.cfg.policy.Name
	}
	if err := r.cfg.commands.Migrate(host, order); err != nil {
		r.trace(EventOrderFailed, host, proc.PID, cand.Host, err.Error())
		return
	}
	r.mu.Lock()
	e.hasCmd = true
	e.lastCmd = now
	e.warmup = 0
	r.decided++
	r.mu.Unlock()
	r.trace(EventOrdered, host, proc.PID, cand.Host, "")
}

// Handler serves the XML protocol: monitors register and refresh (singly or
// batched), hosts ask for candidates, processes come and go.
func (r *Registry) Handler() proto.Handler {
	return func(m *proto.Message) (*proto.Message, error) {
		switch m.Type {
		case proto.TypeRegister:
			return nil, r.RegisterHost(m.From, *m.Static)
		case proto.TypeStatus:
			return nil, r.ReportStatus(m.From, *m.Status)
		case proto.TypeStatusBatch:
			return nil, r.ReportStatusBatch(m.Batch)
		case proto.TypeUnregister:
			return nil, r.UnregisterHost(m.From)
		case proto.TypeProcessRegister:
			return nil, r.RegisterProcess(m.From, *m.Process)
		case proto.TypeProcessExit:
			return nil, r.ProcessExit(m.From, m.Process.PID)
		case proto.TypeCandidateRequest:
			cand := r.Candidate(m.From)
			return &proto.Message{
				Type:      proto.TypeCandidateResponse,
				From:      r.cfg.name,
				Candidate: &cand,
			}, nil
		default:
			return nil, fmt.Errorf("registry: unexpected message type %q", m.Type)
		}
	}
}
