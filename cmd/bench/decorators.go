package main

import (
	"sync/atomic"
	"time"

	"autoresched/internal/mpi"
	"autoresched/internal/persist"
)

// tracedStore is the benchmark's persist.Store decorator: it times the calls
// the registry makes into the store and counts what they carry. It is only
// installed in a traced run. The registry calls the store under its own
// lock, so the decorator's fields need no lock of their own.
type tracedStore struct {
	persist.Store
	tr *tracer
	// opOf attributes a record to the op that caused it and to the open
	// span it belongs under.
	opOf func(data []byte) (op, parent int32)

	appends, appendBytes     int64
	snapshots, snapshotBytes int64
	replayed                 int64
	// pendingSnap is a snapshot span waiting for its op: the registry
	// folds a snapshot right before the append that crossed the cadence,
	// under one lock hold, so the next append names the op for both.
	pendingSnap int32
	// snapOps are the ops that contained a snapshot.
	snapOps map[int32]bool
}

func newTracedStore(s persist.Store, tr *tracer, opOf func([]byte) (int32, int32)) *tracedStore {
	return &tracedStore{Store: s, tr: tr, opOf: opOf, pendingSnap: -1, snapOps: map[int32]bool{}}
}

func (s *tracedStore) Append(epoch uint64, kind string, data []byte) (uint64, error) {
	if !s.tr.enabled() {
		return s.Store.Append(epoch, kind, data)
	}
	op, parent := s.opOf(data)
	if s.pendingSnap >= 0 {
		s.tr.attribute(s.pendingSnap, op, parent)
		s.snapOps[op] = true
		s.pendingSnap = -1
	}
	id := s.tr.begin("persist.append", op, parent)
	seq, err := s.Store.Append(epoch, kind, data)
	s.tr.end(id)
	s.appends++
	s.appendBytes += int64(len(data))
	return seq, err
}

func (s *tracedStore) WriteSnapshot(epoch uint64, snap persist.Snapshot) error {
	id := s.tr.begin("persist.snapshot", -1, -1)
	err := s.Store.WriteSnapshot(epoch, snap)
	s.tr.end(id)
	if id >= 0 {
		s.pendingSnap = id
		s.snapshots++
		s.snapshotBytes += int64(len(snap.Data))
	}
	return err
}

func (s *tracedStore) LoadSnapshot() (persist.Snapshot, bool, error) {
	op, parent := s.opOf(nil)
	id := s.tr.begin("persist.load_snapshot", op, parent)
	snap, ok, err := s.Store.LoadSnapshot()
	s.tr.end(id)
	return snap, ok, err
}

func (s *tracedStore) ReadSince(since uint64) ([]persist.Record, error) {
	op, parent := s.opOf(nil)
	id := s.tr.begin("persist.read_since", op, parent)
	recs, err := s.Store.ReadSince(since)
	s.tr.end(id)
	if id >= 0 {
		s.replayed += int64(len(recs))
	}
	return recs, err
}

// layers fills the write-side persist metrics.
func (s *tracedStore) layers(m map[string]float64, t spanTotals, ops int) {
	m["persist.append_us"] = t.meanUS("persist.append")
	m["persist.appends_per_op"] = float64(s.appends) / float64(ops)
	m["persist.wal_bytes_per_op"] = float64(s.appendBytes) / float64(ops)
	m["persist.snapshots"] = float64(s.snapshots)
	if s.snapshots > 0 {
		m["persist.snapshot_bytes"] = float64(s.snapshotBytes) / float64(s.snapshots)
	}
}

// stallMS is the mean duration of the named span over the ops that
// contained a snapshot: what the fold costs the op that triggers it, and,
// through the registry lock, every op queued behind it.
func (s *tracedStore) stallMS(t spanTotals, name string) float64 {
	var sum int64
	var n int
	for _, sp := range t.spans {
		if sp.Name == name && s.snapOps[sp.Op] {
			sum += sp.End - sp.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// countingTransport decorates mpi.Instant: it counts the cross-host sends
// the migration protocol charges to the transport and the time they wait in
// it (none with Instant; a modelled link would show here).
type countingTransport struct {
	inner mpi.Transport
	on    *atomic.Bool

	sends, bytes, waitNS atomic.Int64
}

func (c *countingTransport) Send(from, to string, bytes int64) error {
	if !c.on.Load() {
		return c.inner.Send(from, to, bytes)
	}
	t0 := time.Now()
	err := c.inner.Send(from, to, bytes)
	c.waitNS.Add(int64(time.Since(t0)))
	c.sends.Add(1)
	c.bytes.Add(bytes)
	return err
}
