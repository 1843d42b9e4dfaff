// Package persist is the control plane's write-ahead persistence layer:
// an append-only change log plus snapshot bootstrap for the registry's
// protocol state, the durable-runtime-state precondition the checkpointing
// literature (Milanés et al. 2013, Lev-Libfeld & Barak 2009) names for
// transparent recovery. A Store accepts typed change Records in sequence
// order, serves incremental catch-up reads from any sequence number (the
// sync feed for domain shards and the warm-standby pair), and holds at most
// one Snapshot that folds a log prefix into one document so bootstrap never
// replays from the beginning of time.
//
// One in-memory log implements the contract: MemStore keeps everything in
// memory — deterministic, allocation-cheap, the backend every simulation and
// chaos scenario uses. FileStore is that same log with a disk medium behind
// it: it serves every read from the log and adds only what is about files —
// length+CRC framed log segments, atomic snapshot and epoch renames, and
// truncation-tolerant recovery (a torn tail record is dropped; anything else
// corrupt fails loudly). Its injected torn write is tear-then-recover: chop
// the bytes, then run the recovery a reopen runs.
//
// # Epoch fencing
//
// Every append names the epoch the writer believes is current. Fence
// advances the epoch — the standby's promotion step — after which appends
// from the old epoch fail with ErrFenced. A deposed primary therefore
// cannot durably commit a gang reservation the promoted standby has
// presumed aborted: its Commit's log write is rejected, the admission
// fails, and the job layer replans. This is the no-double-admission
// guarantee, enforced at the store rather than by timing.
//
// # Single-writer contract
//
// A Store serialises its own operations and is safe for concurrent use
// in-process, but the file backend assumes one process owns the directory;
// there is no cross-process lock. The registry is that single writer, and
// the standby reads through the same in-process Store instance.
package persist

import "errors"

// Record is one typed change-log entry. Seq is assigned by the store,
// contiguous from 1; Kind is the writer's vocabulary (the registry's
// change-record kinds); Data is the writer's encoded payload, opaque to
// the store.
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	Data []byte `json:"data"`
}

// Snapshot folds the log prefix up to and including Seq into one encoded
// state document. A store holds at most one snapshot; writing a new one
// compacts away the log records it covers.
type Snapshot struct {
	Seq  uint64 `json:"seq"`
	Data []byte `json:"data"`
}

// ErrFenced reports an append or snapshot write from a stale epoch — the
// writer was deposed by a Fence (standby promotion) and must stop acting
// as primary.
var ErrFenced = errors.New("persist: epoch fenced")

// Store is the pluggable persistence backend.
type Store interface {
	// Append adds one record at the tail and returns its sequence number.
	// epoch must equal Epoch() or the append fails with ErrFenced.
	Append(epoch uint64, kind string, data []byte) (uint64, error)
	// ReadSince returns every record with Seq > since, in order. A reader
	// that bootstrapped from the snapshot passes the snapshot's Seq; a
	// caught-up follower passes its last applied Seq.
	ReadSince(since uint64) ([]Record, error)
	// Seq returns the sequence number of the last record (snapshot
	// included), 0 when the store is empty.
	Seq() uint64
	// WriteSnapshot replaces the store's snapshot and compacts away the
	// log records it covers. epoch must equal Epoch() or ErrFenced.
	WriteSnapshot(epoch uint64, snap Snapshot) error
	// LoadSnapshot returns the current snapshot, ok=false when none exists.
	LoadSnapshot() (Snapshot, bool, error)
	// Epoch returns the current writer epoch.
	Epoch() uint64
	// Fence advances the epoch and returns the new value; appends carrying
	// an older epoch fail with ErrFenced from then on.
	Fence() (uint64, error)
	// Close releases backend resources. The store must not be used after.
	Close() error
}

// TailTruncator is implemented by stores that can simulate a torn tail
// write — the crash-mid-append the file backend's recovery tolerates.
// TruncateTail chops n bytes off the end of the log; the file backend
// truncates its active segment and repairs it with the recovery a reopen
// runs, which drops the now partial tail record.
type TailTruncator interface {
	TruncateTail(n int) error
}
