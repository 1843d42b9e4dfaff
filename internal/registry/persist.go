package registry

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/rules"
)

// Durable control plane: when WithStore is set, every protocol-state
// mutation — host register/unregister, status refresh, process lifecycle,
// gang reservation and resolution — appends one typed change
// record to the write-ahead store before the in-memory state moves, and
// Restart becomes crash-consistent bootstrap: load the latest snapshot,
// replay the log suffix, resume with zero monitor re-registrations. The
// scheduler's damping (warmup counts, cooldown stamps) is deliberately NOT
// durable: a restarted registry re-warms, exactly the conservatism the
// paper's damping exists to provide.
//
// Pending gang reservations recover by presumed abort: a reservation with
// no resolution record at bootstrap (or standby promotion) was owned by the
// crashed incarnation, so it is durably aborted and its admission replans.
// The live *GangReservation handles from before the crash stay poisoned, so
// their Commit fails rather than double-admitting.

// Change-record kinds. The payloads are the rec* structs below, in
// journal.go's codec (their JSON tags read older stores); timestamps ride
// inside the payloads (taken from the registry's clock, never the wall), so
// replay restores leases bit-identically.
const (
	recKindHostRegister   = "host-register"
	recKindHostStatus     = "host-status"
	recKindHostUnregister = "host-unregister"
	recKindProcRegister   = "proc-register"
	recKindProcExit       = "proc-exit"
	recKindGangReserve    = "gang-reserve"
	recKindGangResolve    = "gang-resolve"
)

type recHostRegister struct {
	Host   string           `json:"host"`
	Static proto.StaticInfo `json:"static"`
	At     time.Time        `json:"at"`
}

type recHostStatus struct {
	Host   string       `json:"host"`
	Status proto.Status `json:"status"`
	At     time.Time    `json:"at"`
}

type recHostUnregister struct {
	Host string `json:"host"`
}

type recProcRegister struct {
	Host string            `json:"host"`
	Info proto.ProcessInfo `json:"info"`
}

type recProcExit struct {
	Host string `json:"host"`
	PID  int    `json:"pid"`
}

type recGangReserve struct {
	ID    uint64   `json:"id"`
	Hosts []string `json:"hosts"`
}

type recGangResolve struct {
	ID     uint64 `json:"id"`
	Commit bool   `json:"commit"`
}

// persistedState is the snapshot document: the registry's whole protocol
// state, encoded deterministically (hosts in registration order, processes
// sorted by host then pid, pending gangs by id). StateDigest hashes its JSON.
type persistedState struct {
	RegSeq  int             `json:"regSeq"`
	GangSeq uint64          `json:"gangSeq"`
	Hosts   []persistedHost `json:"hosts,omitempty"`
	Procs   []persistedProc `json:"procs,omitempty"`
	Gangs   []persistedGang `json:"gangs,omitempty"`
}

// restoreDoc is the snapshot document as a restore reads it, its hosts
// decoded straight into entries (a JSON document fills Hosts instead).
type restoreDoc struct {
	persistedState
	entries []hostEntry
}

type persistedHost struct {
	Name     string           `json:"name"`
	Static   proto.StaticInfo `json:"static"`
	Status   proto.Status     `json:"status"`
	State    rules.State      `json:"state"`
	LastSeen time.Time        `json:"lastSeen"`
	RegOrder int              `json:"regOrder"`
}

type persistedProc struct {
	Host      string    `json:"host"`
	PID       int       `json:"pid"`
	Name      string    `json:"procName"`
	Start     time.Time `json:"start"`
	SchemaXML string    `json:"schemaXML,omitempty"`
}

type persistedGang struct {
	ID    uint64   `json:"id"`
	Hosts []string `json:"hosts"`
}

// appendLocked durably appends one change record; the caller holds r.mu.
// No store and replay are both no-ops. An ErrFenced return means this
// registry was deposed by a standby promotion: the caller must not apply
// the mutation.
func (r *Registry) appendLocked(kind string, p payload) error {
	if r.store == nil || r.replaying {
		return nil
	}
	// Snapshot cadence check runs before the append: the in-memory state
	// right now reflects exactly the records up to lastApplied, so that is
	// the position the snapshot may safely cover (the record being
	// appended has not been applied yet).
	if r.cfg.snapshotEvery > 0 && r.lastApplied-r.lastSnap >= uint64(r.cfg.snapshotEvery) {
		r.snapshotLocked(r.lastApplied)
	}
	seq, err := r.store.Append(r.storeEpoch, kind, r.journal.encode(p))
	if err != nil {
		return fmt.Errorf("registry: append %s record: %w", kind, err)
	}
	r.lastApplied = seq
	r.ctr.appends.Inc()
	return nil
}

// snapshotLocked folds the current state into a store snapshot at seq,
// compacting the log behind it. Best-effort: a failed snapshot write leaves
// the log authoritative.
func (r *Registry) snapshotLocked(seq uint64) {
	if err := r.store.WriteSnapshot(r.storeEpoch, persist.Snapshot{Seq: seq, Data: r.journal.encode(r.foldLocked())}); err != nil {
		return
	}
	r.lastSnap = seq
	r.ctr.snapshots.Inc()
}

// foldLocked renders the protocol state as the canonical snapshot document,
// refilling r.fold in place: the document is valid until the next fold.
// The view is deterministic — two registries holding the same protocol state
// build identical documents — which is what makes StateDigest a meaningful
// recovery check.
func (r *Registry) foldLocked() *persistedState {
	st := &r.fold
	st.RegSeq, st.GangSeq = r.regSeq, r.gangSeq
	st.Hosts = slices.Grow(st.Hosts[:0], len(r.order))
	for _, e := range r.order {
		st.Hosts = append(st.Hosts, persistedHost{
			Name:     e.info.Name,
			Static:   e.info.Static,
			Status:   e.info.Status,
			State:    e.info.State,
			LastSeen: e.info.LastSeen,
			RegOrder: e.regOrder,
		})
	}
	st.Procs = slices.Grow(st.Procs[:0], r.nprocs)
	for _, e := range r.order {
		for _, p := range e.procs {
			st.Procs = append(st.Procs, persistedProc{
				Host:      p.Host,
				PID:       p.PID,
				Name:      p.Name,
				Start:     p.Start,
				SchemaXML: p.schemaXML,
			})
		}
	}
	slices.SortFunc(st.Procs, func(a, b persistedProc) int {
		return cmp.Or(strings.Compare(a.Host, b.Host), cmp.Compare(a.PID, b.PID))
	})
	st.Gangs = st.Gangs[:0]
	for id, hosts := range r.gangs {
		st.Gangs = append(st.Gangs, persistedGang{ID: id, Hosts: hosts})
	}
	slices.SortFunc(st.Gangs, func(a, b persistedGang) int { return cmp.Compare(a.ID, b.ID) })
	return st
}

// StateDigest returns a hex digest of the canonical protocol-state
// encoding. Two registries (or one registry before a crash and after its
// recovery) holding bit-identical protocol state report equal digests.
func (r *Registry) StateDigest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.foldLocked())
	if err != nil {
		return "encode-error"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// Seq returns the sequence number of the last change this registry has
// applied (and, as primary, durably written). Zero without a store.
func (r *Registry) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastApplied
}

// resetStateLocked drops every piece of protocol state, the shared first
// half of both the storeless Restart and the crash-consistent bootstrap,
// sizing the host indexes for n hosts.
func (r *Registry) resetStateLocked(n int) {
	r.hosts = make(map[string]*hostEntry, n)
	r.order = make([]*hostEntry, 0, n)
	r.sets = newStateSets()
	r.nprocs = 0
	r.reserved = make(map[string]*GangReservation)
	r.gangs = make(map[uint64][]string)
	r.regSeq = 0
	r.gangSeq = 0
}

// bootstrapLocked rebuilds the protocol state from the store: snapshot,
// then log suffix, then presumed abort of any reservation left unresolved
// by the previous incarnation. The caller holds r.mu (or owns the registry
// exclusively during construction).
func (r *Registry) bootstrapLocked() error {
	r.resetStateLocked(0)
	r.lastApplied = 0
	if err := r.catchUpLocked(r.store); err != nil {
		return err
	}
	return r.presumeAbortLocked()
}

// catchUpLocked brings the state up to store's tail: the latest snapshot
// when it is ahead of this registry's position (always, for a bootstrap; for
// a standby, when the primary compacted records it has not applied — skipping
// the gap silently would lose them), then every record after it. A primary
// writing concurrently can compact between the two reads; the suffix then
// starts past this position, and the newer snapshot that compaction wrote
// covers the gap, so the catch-up starts over from it. The state sets are
// rebuilt once at the end, error or not.
func (r *Registry) catchUpLocked(store persist.Store) error {
	r.replaying = true
	defer func() {
		r.replaying = false
		r.rebuildSetsLocked()
	}()
	var recs []persist.Record
	for gap := false; ; gap = true {
		snap, ok, err := store.LoadSnapshot()
		if err != nil {
			return fmt.Errorf("registry: load snapshot: %w", err)
		}
		if ok && snap.Seq > r.lastApplied {
			if err := r.restoreStateLocked(snap.Data); err != nil {
				return err
			}
			r.lastApplied = snap.Seq
			r.lastSnap = snap.Seq
		} else if gap {
			return fmt.Errorf("registry: log resumes past seq %d with no snapshot covering the gap", r.lastApplied)
		}
		if recs, err = store.ReadSince(r.lastApplied); err != nil {
			return fmt.Errorf("registry: read log suffix: %w", err)
		}
		if len(recs) == 0 || recs[0].Seq == r.lastApplied+1 {
			break
		}
	}
	// Every record's strings are substrings of one string of the suffix.
	n := 0
	for _, rec := range recs {
		n += len(rec.Data)
	}
	var b strings.Builder
	b.Grow(n)
	for _, rec := range recs {
		b.Write(rec.Data)
	}
	suffix := b.String()
	var c codec
	payloads := replayPayloads()
	for _, rec := range recs {
		s := suffix[:len(rec.Data)]
		suffix = suffix[len(rec.Data):]
		p := payloads[rec.Kind]
		if p == nil {
			return fmt.Errorf("registry: replay: unknown record kind %q (seq %d)", rec.Kind, rec.Seq)
		}
		if err := c.decodeString(rec.Data, s, p); err != nil {
			return replayErr(rec, err)
		}
		if err := r.applyLocked(p); err != nil {
			return replayErr(rec, err)
		}
		r.lastApplied = rec.Seq
	}
	return nil
}

// replayPayloads returns one payload of every change-record kind, by kind:
// a replay decodes each record into the one its kind maps to.
func replayPayloads() map[string]payload {
	return map[string]payload{
		recKindHostRegister:   new(recHostRegister),
		recKindHostStatus:     new(recHostStatus),
		recKindHostUnregister: new(recHostUnregister),
		recKindProcRegister:   new(recProcRegister),
		recKindProcExit:       new(recProcExit),
		recKindGangReserve:    new(recGangReserve),
		recKindGangResolve:    new(recGangResolve),
	}
}

// presumeAbortLocked durably aborts every reservation the log leaves
// unresolved: it was held by the crashed (or deposed) incarnation. The
// resolution is journalled so a standby replaying the same log reaches the
// same conclusion.
func (r *Registry) presumeAbortLocked() error {
	ids := make([]uint64, 0, len(r.gangs))
	for id := range r.gangs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := r.resolveLocked(id, false); err != nil {
			return err
		}
	}
	return nil
}

// restoreStateLocked replaces the protocol state with a snapshot document:
// its hosts are one slab of entries, indexed in registration order whatever
// order the document lists them in, and every host's processes a run carved
// out of one slab. The caller is replaying and rebuilds the state sets.
func (r *Registry) restoreStateLocked(data []byte) error {
	var doc restoreDoc
	var c codec
	if err := c.decode(data, &doc); err != nil {
		return fmt.Errorf("registry: decode snapshot: %w", err)
	}
	doc.entries = slices.Grow(doc.entries, len(doc.Hosts))
	for _, h := range doc.Hosts {
		doc.entries = append(doc.entries, hostEntry{regOrder: h.RegOrder,
			info: HostInfo{Name: h.Name, Static: h.Static, Status: h.Status, State: h.State, LastSeen: h.LastSeen}})
	}
	r.resetStateLocked(len(doc.entries))
	r.regSeq = doc.RegSeq
	r.gangSeq = doc.GangSeq
	for i := range doc.entries {
		e := &doc.entries[i]
		r.hosts[e.info.Name] = e
		r.order = append(r.order, e)
	}
	slices.SortFunc(r.order, func(a, b *hostEntry) int { return cmp.Compare(a.regOrder, b.regOrder) })
	procs := make([]ProcInfo, 0, len(doc.Procs))
	var run *hostEntry // the host whose run ends procs
	for _, sp := range doc.Procs {
		info := proto.ProcessInfo{PID: sp.PID, Name: sp.Name, Start: sp.Start.UnixNano(), SchemaXML: sp.SchemaXML}
		p, err := newProcInfo(sp.Host, info)
		if err != nil {
			return fmt.Errorf("registry: snapshot process: %w", err)
		}
		e, ok := r.hosts[sp.Host]
		switch {
		case !ok:
			return fmt.Errorf("registry: snapshot process from unregistered host %q", sp.Host)
		case len(e.procs) == 0, e == run && p.PID > e.procs[len(e.procs)-1].PID:
			// The document's (host, PID) order: extend the host's run.
			start := len(procs) - len(e.procs)
			procs = append(procs, p)
			e.procs = procs[start:len(procs):len(procs)]
			r.nprocs++
			run = e
		default:
			run = nil
			r.addProcLocked(e, p)
		}
	}
	for _, g := range doc.Gangs {
		r.gangs[g.ID] = append([]string(nil), g.Hosts...)
	}
	return nil
}

// applyLocked is the one place protocol state moves. Given a change-record
// payload it checks the payload against the current state, journals it
// (appendLocked: nothing without a store, nothing while replaying), and only
// then mutates. The public mutation methods call it with a payload they just
// built and add their runtime-only effects (gauges, reservation marks, the
// scheduling decision); bootstrap and the standby call it
// with a payload decoded from the log. A withdrawal of something already gone
// is a no-op and is not journalled. The caller holds r.mu.
func (r *Registry) applyLocked(v any) error {
	switch p := v.(type) {
	case *recHostRegister:
		if err := r.appendLocked(recKindHostRegister, p); err != nil {
			return err
		}
		e, ok := r.hosts[p.Host]
		if !ok {
			r.regSeq++
			e = &hostEntry{regOrder: r.regSeq}
			e.info.State = rules.Free
			r.hosts[p.Host] = e
			r.order = append(r.order, e)
			if !r.replaying {
				r.sets[rules.Free] = insertOrdered(r.sets[rules.Free], e)
			}
		} else {
			r.setStateLocked(e, rules.Free)
		}
		e.info.Name = p.Host
		e.info.Static = p.Static
		e.info.LastSeen = p.At.UTC()
	case *recHostStatus:
		e, ok := r.hosts[p.Host]
		if !ok {
			return fmt.Errorf("registry: status from unregistered host %q", p.Host)
		}
		state, err := rules.ParseState(p.Status.State)
		if err != nil {
			return err
		}
		if err := r.appendLocked(recKindHostStatus, p); err != nil {
			return err
		}
		e.info.Status = p.Status
		r.setStateLocked(e, state)
		e.info.LastSeen = p.At.UTC()
	case *recHostUnregister:
		e, ok := r.hosts[p.Host]
		if !ok {
			return nil
		}
		if err := r.appendLocked(recKindHostUnregister, p); err != nil {
			return err
		}
		delete(r.hosts, p.Host)
		r.order = removeOrdered(r.order, e)
		if !r.replaying {
			r.sets[e.info.State] = removeOrdered(r.sets[e.info.State], e)
		}
		r.nprocs -= len(e.procs)
	case *recProcRegister:
		pi, err := newProcInfo(p.Host, p.Info)
		if err != nil {
			return err
		}
		e, ok := r.hosts[p.Host]
		if !ok {
			return fmt.Errorf("registry: process from unregistered host %q", p.Host)
		}
		if err := r.appendLocked(recKindProcRegister, p); err != nil {
			return err
		}
		r.addProcLocked(e, pi)
	case *recProcExit:
		e, ok := r.hosts[p.Host]
		if !ok {
			return nil
		}
		i, found := slices.BinarySearchFunc(e.procs, p.PID, byPID)
		if !found {
			return nil
		}
		if err := r.appendLocked(recKindProcExit, p); err != nil {
			return err
		}
		e.procs = slices.Delete(e.procs, i, i+1)
		r.nprocs--
	case *recGangReserve:
		if err := r.appendLocked(recKindGangReserve, p); err != nil {
			return err
		}
		r.gangSeq = p.ID
		// The list is the reservation's own, never written after it is
		// made, or one a replay decoded fresh: the durable view shares it.
		r.gangs[p.ID] = p.Hosts
	case *recGangResolve:
		// A reservation the durable state no longer tracks — already resolved
		// by presumed abort, or never journalled (no store) — has nothing to
		// resolve.
		if _, ok := r.gangs[p.ID]; !ok {
			return nil
		}
		if err := r.appendLocked(recKindGangResolve, p); err != nil {
			return err
		}
		delete(r.gangs, p.ID)
	default:
		return fmt.Errorf("registry: no apply for change record %T", v)
	}
	return nil
}

func replayErr(rec persist.Record, err error) error {
	return fmt.Errorf("registry: replay %s (seq %d): %w", rec.Kind, rec.Seq, err)
}
