// Package registry implements the registry/scheduler entity (Section 3.2):
// soft-state host registration over the push model (hosts that stop
// refreshing become unavailable), process registration with application
// schemas, pluggable placement (first fit by default, Section 4's process
// selection by latest estimated completion time), and the hierarchical
// arrangement in which a domain's registry delegates to its upper-level
// registry when no local host fits.
//
// # Concurrency contract
//
// A Registry is safe for concurrent use. Read methods (Hosts, Processes,
// Health, Stats) return deep-enough copies that the caller may use
// without synchronisation. Ordering is deterministic: Hosts returns hosts in
// registration order, Processes returns processes in PID order. Concurrent
// writers
// interleave at method granularity — a snapshot reflects some serialisation
// of the completed calls, never a torn record.
package registry

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// CommandSink dispatches migrate orders to a host's commander.
type CommandSink interface {
	Migrate(host string, order proto.MigrateOrder) error
}

// config is what the Options write into: one field per setting, each
// described (with its default) here.
type config struct {
	// name identifies this registry in protocol traffic.
	name string
	// clock drives lease expiry; nil selects the real clock.
	clock vclock.Clock
	// lease is how long a host stays alive without a refresh; zero selects
	// 35 seconds (a few missed 10-second refreshes).
	lease time.Duration
	// policy decides when to migrate and which destinations qualify. Nil
	// selects the pure state-based policy: migrate off overloaded hosts,
	// onto free hosts (Table 1 semantics). Either way the destination is
	// the first that qualifies (candidatesLocked).
	policy *rules.MigrationPolicy
	// commands receives migrate orders; nil leaves the registry passive
	// (candidates are still served on request).
	commands CommandSink
	// parent is the upper-level registry consulted when no local host
	// fits (the hierarchical arrangement of Section 3.2).
	parent *Registry
	// warmup is how many consecutive qualifying reports a host must send
	// before the scheduler acts — the configurable damping that gave the
	// paper its 72-second reaction and avoided "fault migration caused by
	// small system performance variations". Zero selects 3.
	warmup int
	// cooldown is the minimum gap between migrate orders concerning the
	// same source host; zero selects 60 seconds.
	cooldown time.Duration
	// events, if set, receives every scheduling-decision event as it
	// happens on the unified runtime sink (Source "registry", Kind one of
	// the EventKind values; restarts and promotions carry a RestartEvent
	// payload). Buffer with a metrics.Ring to keep a trace.
	events metrics.Sink
	// store, when set, makes the protocol state durable: every mutation
	// appends a typed change record to this write-ahead store, and Restart
	// becomes crash-consistent bootstrap (snapshot + log suffix replay,
	// zero monitor re-registrations) instead of a soft-state drop. See
	// internal/persist for the backends and the epoch-fencing contract.
	store persist.Store
	// snapshotEvery, with store set, folds the state into a compacting
	// store snapshot every N appended records; zero disables periodic
	// snapshots (the log then grows until someone snapshots explicitly).
	snapshotEvery int
	// metrics, when set, receives the registry's gauges and latency
	// histograms (registry/hosts, registry/decide_seconds) and its
	// registry/* and persist/* counters, which are created at construction
	// so a scrape serves them at zero. Nil disables.
	metrics *metrics.Registry
}

// Metric names the registry exports when WithMetrics is set. The hosts
// gauge tracks registrations; decide_seconds is the time one scheduling
// decision takes on the registry's clock.
const (
	MetricHosts         = "registry/hosts"
	MetricDecideSeconds = "registry/decide_seconds"
)

// Counter names the registry increments on WithMetrics.
const (
	CtrRestarts          = "registry/restarts"
	CtrRecoveries        = "registry/recoveries"
	CtrStandbyPromotions = "registry/standby_promotions"
	CtrPersistAppends    = "persist/appends"
	CtrPersistSnapshots  = "persist/snapshots"
)

// counters are the registry's counters, resolved once at construction so
// counting under r.mu (every durable mutation appends) is a nil check plus
// an atomic add. All nil without WithMetrics.
type counters struct {
	restarts, recoveries, promotions, appends, snapshots *metrics.Counter
}

func newCounters(m *metrics.Registry) counters {
	return counters{
		restarts:   m.Counter(CtrRestarts),
		recoveries: m.Counter(CtrRecoveries),
		promotions: m.Counter(CtrStandbyPromotions),
		appends:    m.Counter(CtrPersistAppends),
		snapshots:  m.Counter(CtrPersistSnapshots),
	}
}

// HostInfo is the registry's view of one host.
type HostInfo struct {
	Name     string
	Static   proto.StaticInfo
	Status   proto.Status
	State    rules.State
	LastSeen time.Time
}

// fits reports whether the host owns the resources a schema requires, as
// last reported.
func (h *HostInfo) fits(s *rules.Schema) bool {
	return fits(s, h.Static.MemTotal, h.Status.DiskAvail, h.Static.CPUSpeed, h.Static.Software)
}

// HostFit is what placement reads of a host: its name and the resources an
// application schema can require, as last reported — 64 bytes where a
// HostInfo takes 240. EligibleHosts lists the fleet as HostFits.
type HostFit struct {
	Name      string
	MemTotal  int64
	DiskAvail int64
	CPUSpeed  float64
	Software  []string
}

// Fits reports whether the host owns the resources a schema requires; a nil
// schema fits every host.
func (h *HostFit) Fits(s *rules.Schema) bool {
	return fits(s, h.MemTotal, h.DiskAvail, h.CPUSpeed, h.Software)
}

// fits is the one schema rule a host record is judged by; a nil schema fits
// every host.
func fits(s *rules.Schema, memTotal, diskAvail int64, cpuSpeed float64, software []string) bool {
	if s == nil {
		return true
	}
	ok, _ := s.Fits(memTotal, diskAvail, cpuSpeed, software)
	return ok
}

// ProcInfo is the registry's view of one migration-enabled process.
type ProcInfo struct {
	Host   string
	PID    int
	Name   string
	Start  time.Time
	Schema *rules.Schema
	// schemaXML retains the wire document Schema was parsed from, so the
	// durable change log and snapshots can round-trip it.
	schemaXML string
}

type hostEntry struct {
	info     HostInfo
	warmup   int
	lastCmd  time.Time
	hasCmd   bool
	regOrder int
	// procs are the host's processes, sorted by PID: after a restore a run
	// of one slab, capped so that growing it cannot overwrite the next run.
	procs []ProcInfo
}

// Registry is a registry/scheduler instance.
type Registry struct {
	cfg    config
	clock  vclock.Clock
	probes *sysinfo.Probes
	ctr    counters

	mu    sync.Mutex
	hosts map[string]*hostEntry
	// order holds every entry sorted by regOrder — registration order.
	// It is maintained incrementally (append on register, splice on
	// unregister) so no request path ever re-sorts.
	order []*hostEntry
	// sets indexes the entries by their last reported state, each slice
	// in registration order, so placement scans only the states it wants
	// (the default policy touches just the Free set). A replay leaves them
	// to catchUpLocked, which rebuilds them once.
	sets map[rules.State][]*hostEntry
	// nprocs counts the processes on every host's procs.
	nprocs int
	// reserved marks hosts held by pending gang reservations; candidate
	// scans skip them until the reservation commits or aborts.
	reserved map[string]*GangReservation
	regSeq   int
	decided  int // migrate orders issued
	declined int // decision cycles that found no destination

	// Durable control plane (nil store = classic soft state). gangs is the
	// durable view of unresolved reservations by id — what presumed abort
	// resolves at bootstrap; storeEpoch is the fencing token every append
	// carries; lastApplied/lastSnap drive the catch-up feed and snapshot
	// cadence; replaying suppresses appends during bootstrap. journal encodes
	// records and snapshots, reusing one buffer (stores copy what they keep);
	// fold is the snapshot document, refilled in place by every snapshot and
	// StateDigest; status is the heartbeat record, refilled by every
	// ReportStatus, and reserve and resolve are the gang records, refilled by
	// every reservation and resolution (each is encoded before applyLocked
	// returns, so one of each serves every call under r.mu).
	store       persist.Store
	storeEpoch  uint64
	replaying   bool
	lastApplied uint64
	lastSnap    uint64
	gangSeq     uint64
	gangs       map[uint64][]string
	journal     codec
	fold        persistedState
	status      recHostStatus
	reserve     recGangReserve
	resolve     recGangResolve
}

func newStateSets() map[rules.State][]*hostEntry {
	return map[rules.State][]*hostEntry{
		rules.Free:        nil,
		rules.Busy:        nil,
		rules.Overloaded:  nil,
		rules.Unavailable: nil,
	}
}

// insertOrdered splices e into s keeping regOrder ascending.
func insertOrdered(s []*hostEntry, e *hostEntry) []*hostEntry {
	i := sort.Search(len(s), func(i int) bool { return s[i].regOrder >= e.regOrder })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// removeOrdered splices e out of s (a no-op if absent).
func removeOrdered(s []*hostEntry, e *hostEntry) []*hostEntry {
	i := sort.Search(len(s), func(i int) bool { return s[i].regOrder >= e.regOrder })
	if i < len(s) && s[i] == e {
		s = append(s[:i], s[i+1:]...)
	}
	return s
}

// setStateLocked moves e between state sets when its reported state changes.
func (r *Registry) setStateLocked(e *hostEntry, state rules.State) {
	if e.info.State == state {
		return
	}
	if !r.replaying {
		r.sets[e.info.State] = removeOrdered(r.sets[e.info.State], e)
		r.sets[state] = insertOrdered(r.sets[state], e)
	}
	e.info.State = state
}

// rebuildSetsLocked refills the state sets from order, each grown once.
func (r *Registry) rebuildSetsLocked() {
	n := make(map[rules.State]int, len(r.sets))
	for _, e := range r.order {
		n[e.info.State]++
	}
	for state, set := range r.sets {
		r.sets[state] = slices.Grow(set[:0], n[state])
	}
	for _, e := range r.order {
		r.sets[e.info.State] = append(r.sets[e.info.State], e)
	}
}

// RegisterHost records a host's static information (one-time registration).
// Re-registering refreshes the static information and the lease.
func (r *Registry) RegisterHost(host string, static proto.StaticInfo) error {
	if host == "" {
		return errors.New("registry: empty host name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.applyLocked(&recHostRegister{Host: host, Static: static, At: r.clock.Now()}); err != nil {
		return err
	}
	r.cfg.metrics.Gauge(MetricHosts).Set(float64(len(r.hosts)))
	return nil
}

// ReportStatus is the soft-state refresh: it updates the host's dynamic
// information, renews the lease, and — when a command sink is configured —
// runs the scheduling decision.
func (r *Registry) ReportStatus(host string, status proto.Status) error {
	r.mu.Lock()
	r.status = recHostStatus{Host: host, Status: status, At: r.clock.Now()}
	err := r.applyLocked(&r.status)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if r.cfg.commands != nil {
		r.decide(host)
	}
	return nil
}

// Restart simulates a registry crash and restart. Without a store, all
// soft state — host registrations, process registrations, warmup and
// cooldown bookkeeping — is dropped, exactly as a freshly started registry
// would have none of it. The protocol's soft-state design makes this
// survivable: monitors re-register when their next refresh is rejected and
// the runtime resyncs its processes.
//
// With a store, Restart is instead the crash-consistent bootstrap: the
// protocol state is rebuilt from the latest snapshot plus the log suffix —
// no re-registration storm, zero monitor re-registrations — and pending
// gang reservations are presumed aborted (their pre-crash handles stay
// poisoned, so a Commit from before the crash still fails). Scheduler
// damping re-warms either way.
func (r *Registry) Restart() {
	r.mu.Lock()
	// Pending gang reservations do not survive the incarnation in either
	// mode: poison the live handles so their Commit fails and the
	// admission retries against the rebuilt registry.
	for host, g := range r.reserved {
		g.lost = append(g.lost, host)
	}
	recovered := false
	if r.store != nil {
		if err := r.bootstrapLocked(); err != nil {
			// A store that cannot be replayed yields the classic
			// soft-state restart rather than a wedged registry.
			r.resetStateLocked(0)
		} else {
			recovered = true
		}
	} else {
		r.resetStateLocked(0)
	}
	hosts := len(r.hosts)
	ev := RestartEvent{
		Recovered: recovered,
		Seq:       r.lastApplied,
		Hosts:     hosts,
		Procs:     r.nprocs,
	}
	r.mu.Unlock()
	r.ctr.restarts.Inc()
	note := "soft state dropped"
	if recovered {
		r.ctr.recoveries.Inc()
		note = fmt.Sprintf("recovered from store: %d hosts, %d procs at seq %d", ev.Hosts, ev.Procs, ev.Seq)
	}
	r.cfg.metrics.Gauge(MetricHosts).Set(float64(hosts))
	r.traceWith(ev, EventRestart, "", 0, "", note)
}

// UnregisterHost withdraws a host and its processes.
func (r *Registry) UnregisterHost(host string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.applyLocked(&recHostUnregister{Host: host}); err != nil {
		return err
	}
	// A reservation holding this host can no longer launch its full gang:
	// poison it (Commit fails, the admission rolls back) and drop the mark
	// so the dead host leaves no orphaned lease behind.
	if g, ok := r.reserved[host]; ok {
		g.lost = append(g.lost, host)
		delete(r.reserved, host)
	}
	r.cfg.metrics.Gauge(MetricHosts).Set(float64(len(r.hosts)))
	return nil
}

// alive reports whether a host's lease is fresh.
func (r *Registry) aliveLocked(e *hostEntry, now time.Time) bool {
	return now.Sub(e.info.LastSeen) <= r.cfg.lease
}

// Hosts returns a copy of every known host, in registration order; hosts
// with expired leases are reported Unavailable.
func (r *Registry) Hosts() []HostInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	out := make([]HostInfo, 0, len(r.order))
	for _, e := range r.order {
		info := e.info
		if !r.aliveLocked(e, now) {
			info.State = rules.Unavailable
		}
		out = append(out, info)
	}
	return out
}

// RegisterProcess records a migration-enabled process and its application
// schema (carried as XML, as on the wire).
func (r *Registry) RegisterProcess(host string, info proto.ProcessInfo) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyLocked(&recProcRegister{Host: host, Info: info})
}

// ProcessExit withdraws a process.
func (r *Registry) ProcessExit(host string, pid int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyLocked(&recProcExit{Host: host, PID: pid})
}

// Processes returns a copy of the registered processes on a host, in PID
// order.
func (r *Registry) Processes(host string) []ProcInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hosts[host]
	if !ok || len(e.procs) == 0 {
		return nil
	}
	return slices.Clone(e.procs)
}

// newProcInfo is the registry's record of a process registered on host,
// its schema document parsed.
func newProcInfo(host string, info proto.ProcessInfo) (ProcInfo, error) {
	p := ProcInfo{Host: host, PID: info.PID, Name: info.Name, Start: time.Unix(0, info.Start).UTC(),
		schemaXML: info.SchemaXML}
	if info.SchemaXML != "" {
		sch, err := rules.ParseSchema([]byte(info.SchemaXML))
		if err != nil {
			return ProcInfo{}, fmt.Errorf("registry: process schema: %w", err)
		}
		p.Schema = sch
	}
	return p, nil
}

// addProcLocked inserts p into e's PID-sorted processes, replacing one with
// its PID.
func (r *Registry) addProcLocked(e *hostEntry, p ProcInfo) {
	i, found := slices.BinarySearchFunc(e.procs, p.PID, byPID)
	if found {
		e.procs[i] = p
		return
	}
	e.procs = slices.Insert(e.procs, i, p)
	r.nprocs++
}

func byPID(p ProcInfo, pid int) int { return cmp.Compare(p.PID, pid) }

// SelectProcess picks the process to migrate off a host: the one with the
// latest estimated completion time, "to reduce the possibility of migrating
// multiple processes" (Section 4).
func (r *Registry) SelectProcess(host string) (ProcInfo, bool) {
	r.mu.Lock()
	e, ok := r.hosts[host]
	if !ok {
		r.mu.Unlock()
		return ProcInfo{}, false
	}
	speed := e.info.Static.CPUSpeed
	procs := slices.Clone(e.procs)
	r.mu.Unlock()
	return selectLatestCompletion(speed, procs)
}

// selectLatestCompletion is the paper's process choice (Section 4): the
// process with the latest estimated completion time, so that one migration
// relieves the host for the longest.
func selectLatestCompletion(cpuSpeed float64, procs []ProcInfo) (ProcInfo, bool) {
	if len(procs) == 0 {
		return ProcInfo{}, false
	}
	best := procs[0]
	bestDone := estimatedDone(procs[0], cpuSpeed)
	for _, p := range procs[1:] {
		if done := estimatedDone(p, cpuSpeed); done.After(bestDone) {
			best, bestDone = p, done
		}
	}
	return best, true
}

func estimatedDone(p ProcInfo, cpuSpeed float64) time.Time {
	if p.Schema == nil {
		return p.Start
	}
	return p.Schema.EstimatedCompletion(p.Start, cpuSpeed)
}

// Stats reports how many migrate orders were issued and how many decision
// cycles found no destination.
func (r *Registry) Stats() (ordered, declined int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decided, r.declined
}

// Health summarises a registry's control domain — the "health condition"
// of Section 3.2: how many hosts it knows in each state and how many
// processes it tracks.
type Health struct {
	Hosts       int
	Free        int
	Busy        int
	Overloaded  int
	Unavailable int
	Processes   int
}

// Health computes the domain summary.
func (r *Registry) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	h := Health{Processes: r.nprocs}
	for _, e := range r.order {
		h.Hosts++
		if !r.aliveLocked(e, now) {
			h.Unavailable++
			continue
		}
		switch e.info.State {
		case rules.Free:
			h.Free++
		case rules.Busy:
			h.Busy++
		case rules.Overloaded:
			h.Overloaded++
		default:
			h.Unavailable++
		}
	}
	return h
}
