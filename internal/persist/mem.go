package persist

import (
	"slices"
	"sort"
	"sync"
)

// MemStore is the in-memory Store backend: deterministic, no I/O, the
// backend every simulation and chaos scenario plugs into core.Options.
// It honours the whole contract — epoch fencing, snapshot compaction,
// catch-up reads — and additionally implements TailTruncator by dropping
// the newest record, modelling the torn tail write the file backend's
// recovery would discard.
//
// The store copies what it keeps, and reuses what it can. Append copies
// each body into a packed chunk that is only ever appended to — never
// rewound, not even by a torn tail — so a Record.Data that ReadSince
// handed out (read-only: it aliases the chunk) is never overwritten, and a
// chunk is collected once compaction has dropped its last record. The
// snapshot is copied into the one buffer the store holds; LoadSnapshot
// copies it out.
type MemStore struct {
	mu    sync.Mutex
	recs  []Record
	chunk []byte // the chunk Append packs bodies into
	snap  Snapshot
	has   bool
	seq   uint64
	epoch uint64
}

// chunkSize is the capacity of one packed body chunk. A larger body gets a
// chunk of its own.
const chunkSize = 64 << 10

// NewMemStore creates an empty in-memory store at epoch 0.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (s *MemStore) Append(epoch uint64, kind string, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != s.epoch {
		return 0, ErrFenced
	}
	s.seq++
	s.recs = append(s.recs, Record{Seq: s.seq, Kind: kind, Data: s.pack(data)})
	return s.seq, nil
}

// pack copies data to the end of the current chunk, starting a fresh one
// when it does not fit, and returns the copy capped at its own length, so
// an append to it cannot reach the next body.
func (s *MemStore) pack(data []byte) []byte {
	if len(data) > chunkSize {
		return append(make([]byte, 0, len(data)), data...)
	}
	if s.chunk == nil || len(data) > cap(s.chunk)-len(s.chunk) {
		s.chunk = make([]byte, 0, chunkSize)
	}
	at := len(s.chunk)
	s.chunk = append(s.chunk, data...)
	return s.chunk[at:len(s.chunk):len(s.chunk)]
}

// ReadSince implements Store. The log is in Seq order, so the first record
// past since is found by binary search, and the result allocated once.
func (s *MemStore) ReadSince(since uint64) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.recs), func(i int) bool { return s.recs[i].Seq > since })
	if i == len(s.recs) {
		return nil, nil
	}
	return slices.Clone(s.recs[i:]), nil
}

// Seq implements Store.
func (s *MemStore) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// WriteSnapshot implements Store.
func (s *MemStore) WriteSnapshot(epoch uint64, snap Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != s.epoch {
		return ErrFenced
	}
	s.snap = Snapshot{Seq: snap.Seq, Data: append(s.snap.Data[:0], snap.Data...)}
	s.has = true
	// Compact: drop the covered prefix, clearing the vacated slots so the
	// chunks only they reference can be collected.
	keep := s.recs[:0]
	for _, r := range s.recs {
		if r.Seq > snap.Seq {
			keep = append(keep, r)
		}
	}
	clear(s.recs[len(keep):])
	s.recs = keep
	if snap.Seq > s.seq {
		s.seq = snap.Seq
	}
	return nil
}

// LoadSnapshot implements Store.
func (s *MemStore) LoadSnapshot() (Snapshot, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return Snapshot{}, false, nil
	}
	return Snapshot{Seq: s.snap.Seq, Data: append([]byte(nil), s.snap.Data...)}, true, nil
}

// Epoch implements Store.
func (s *MemStore) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Fence implements Store.
func (s *MemStore) Fence() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	return s.epoch, nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// TruncateTail implements TailTruncator: a positive n drops the newest
// record — the in-memory analogue of tearing the tail frame, which the
// file backend's recovery would likewise discard.
func (s *MemStore) TruncateTail(n int) error {
	if n > 0 {
		s.rewind(1)
	}
	return nil
}

// rewind drops the newest n records — never one the snapshot has folded —
// and rewinds the sequence so the next append reuses the first dropped
// number, exactly as a restarted file store would. Both backends'
// TruncateTail end here. The dropped bodies stay where they are in their
// chunk: a reader may still hold them.
func (s *MemStore) rewind(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.recs) {
		n = len(s.recs)
	}
	if n <= 0 {
		return
	}
	keep := len(s.recs) - n
	s.seq = s.recs[keep].Seq - 1
	s.recs = s.recs[:keep]
}
