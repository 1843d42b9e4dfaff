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

// candidatesLocked is the one placement rule, the paper's first fit (Section
// 3.2): it appends to dst, as take renders them, the hosts of scan that
// qualify, in registration order, until dst holds n (n <= 0 takes them all),
// and returns it. A host qualifies when its lease is fresh, no pending gang
// reservation holds it (placing onto one would double-book it under the gang
// about to launch there), the caller's keep accepts it, and it owns the
// resources proc's schema requires (a nil schema fits everywhere). Migration
// destinations, gang placement and the dispatcher's fleet snapshot all draw
// from it, each taking only what it keeps of a host. The caller holds the
// registry lock.
func candidatesLocked[T any](r *Registry, dst []T, scan []*hostEntry, proc ProcInfo, n int, keep func(*hostEntry) bool, take func(*hostEntry) T) []T {
	now := r.clock.Now()
	for _, e := range scan {
		if n > 0 && len(dst) == n {
			break
		}
		if !r.aliveLocked(e, now) || r.reservedLocked(e.info.Name) || !keep(e) || !e.info.fits(proc.Schema) {
			continue
		}
		dst = append(dst, take(e))
	}
	return dst
}

// FirstFit finds a destination for proc, excluding the source host: the
// local domain is searched first (migration destinations are preferred
// inside one's own control domain, Section 3.2), then the parent registry,
// which delegates upward in turn.
func (r *Registry) FirstFit(exclude string, proc ProcInfo) (proto.Candidate, bool) {
	if cand, ok := r.placeLocal(exclude, proc); ok {
		return cand, true
	}
	if r.cfg.parent != nil {
		return r.cfg.parent.FirstFit(exclude, proc)
	}
	return proto.Candidate{OK: false, Reason: "no host fits"}, false
}

// placeLocal places proc on the first of this registry's own eligible hosts
// that accepts a migration. Under the default policy only the Free state set
// is scanned — the indexed sets keep this cheap when most of a large cluster
// is busy.
func (r *Registry) placeLocal(exclude string, proc ProcInfo) (proto.Candidate, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	scan := r.order
	if r.cfg.policy == nil {
		scan = r.sets[rules.Free]
	}
	var buf [1]proto.Candidate
	picked := candidatesLocked(r, buf[:0], scan, proc, 1, func(e *hostEntry) bool {
		return e.info.Name != exclude && r.acceptsLocked(e)
	}, func(e *hostEntry) proto.Candidate {
		return proto.Candidate{OK: true, Host: e.info.Name, Addr: e.info.Static.Addr}
	})
	if len(picked) == 0 {
		return proto.Candidate{}, false
	}
	return picked[0], true
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

// Handler serves the XML protocol: monitors register and refresh, hosts
// ask for candidates, processes come and go.
func (r *Registry) Handler() proto.Handler {
	return func(m *proto.Message) (*proto.Message, error) {
		switch m.Type {
		case proto.TypeRegister:
			return nil, r.RegisterHost(m.From, *m.Static)
		case proto.TypeStatus:
			return nil, r.ReportStatus(m.From, *m.Status)
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
