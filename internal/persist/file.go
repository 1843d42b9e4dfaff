package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FileStore is the file-backed Store: the in-memory log with a disk medium
// behind it. Every read is served by the embedded log; every mutation is
// written to disk first and applied to the log second, so the log never runs
// ahead of the files and a failed write leaves it unmoved. Records are framed
// into append-only log segments ([4-byte length][4-byte CRC32][JSON payload],
// little-endian headers), the snapshot is one framed document replaced by
// atomic rename, and the epoch lives in its own atomically renamed file.
// Writes go through the OS page cache (no per-record fsync): the durability
// target is the paper's crash-restart of the control-plane process, not
// media loss, and recovery tolerates the resulting torn tail — a final frame
// cut short by the crash is dropped (and the file truncated back to the
// intact prefix), while a CRC mismatch anywhere else fails loudly rather
// than loading corrupt state.
//
// Segments roll every SegmentRecords records and are named by the sequence
// number of their first record, so snapshot compaction can unlink every
// segment whose records the snapshot covers without rewriting anything.
type FileStore struct {
	dir    string
	segMax int

	// memLog serves ReadSince, Seq, LoadSnapshot and Epoch. mu serialises
	// the mutations; the lock order is always mu, then the log's own mutex.
	memLog
	mu       sync.Mutex
	segs     []segInfo
	active   *os.File // tail segment, open for append; nil when none
	tailRecs int      // records in the tail segment: the roll test
	closed   bool
}

// memLog embeds MemStore under an unexported name: its read methods are
// promoted to FileStore, but no caller outside the package can reach its
// Append and so mutate the log without the disk write.
type memLog = MemStore

type segInfo struct {
	path string
	last uint64
}

// FileConfig tunes a FileStore.
type FileConfig struct {
	// SegmentRecords rolls the log to a fresh segment after this many
	// records; zero selects 1024.
	SegmentRecords int
}

const (
	snapshotName = "snapshot"
	epochName    = "epoch"
	segPrefix    = "log-"
	segSuffix    = ".seg"
	frameHeader  = 8 // 4-byte length + 4-byte CRC32
)

// maxFrame bounds a frame's payload length; a header claiming more is
// corruption (or a torn length field), never a real record.
const maxFrame = 1 << 26

// OpenFileStore opens (creating if needed) the store rooted at dir and
// recovers its state: epoch, snapshot, and every log segment in order.
// A torn tail record in the final segment is dropped and the file is
// truncated back to the intact prefix; any other framing or checksum
// damage is a loud error — the store never loads corrupt state. Recovery
// runs before the store is shared, so it alone fills the log's fields
// directly instead of going through its methods.
func OpenFileStore(dir string, cfg FileConfig) (*FileStore, error) {
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = 1024
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	s := &FileStore{dir: dir, segMax: cfg.SegmentRecords}
	if err := s.recoverEpoch(); err != nil {
		return nil, err
	}
	if err := s.recoverSnapshot(); err != nil {
		return nil, err
	}
	if err := s.recoverSegments(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *FileStore) recoverEpoch() error {
	b, err := os.ReadFile(filepath.Join(s.dir, epochName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: read epoch: %w", err)
	}
	var e uint64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(b)), "%d", &e); err != nil {
		return fmt.Errorf("persist: corrupt epoch file: %w", err)
	}
	s.epoch = e
	return nil
}

func (s *FileStore) recoverSnapshot() error {
	b, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: read snapshot: %w", err)
	}
	// The snapshot is replaced by atomic rename, so unlike the log tail a
	// short or mismatched frame here is corruption, not a crash artifact.
	payload, n, err := readFrame(b, 0)
	if err != nil {
		return fmt.Errorf("persist: corrupt snapshot: %w", err)
	}
	if n != int64(len(b)) {
		return fmt.Errorf("persist: corrupt snapshot: %d-byte frame in a %d-byte file", n, len(b))
	}
	if err := json.Unmarshal(payload, &s.snap); err != nil {
		return fmt.Errorf("persist: corrupt snapshot: %w", err)
	}
	s.has = true
	s.seq = s.snap.Seq
	return nil
}

func (s *FileStore) recoverSegments() error {
	names, err := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return fmt.Errorf("persist: list segments: %w", err)
	}
	sort.Strings(names) // zero-padded first-seq names sort numerically
	var prev uint64
	for i, name := range names {
		seg, recs, err := recoverSegment(name, i == len(names)-1, prev)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, seg)
		s.tailRecs, prev = len(recs), seg.last
		for _, r := range recs {
			if r.Seq > s.seq { // not covered by the snapshot
				s.recs = append(s.recs, r)
				s.seq = r.Seq
			}
		}
	}
	// Reopen the final segment for append.
	if len(s.segs) > 0 {
		f, err := os.OpenFile(s.segs[len(s.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("persist: reopen tail segment: %w", err)
		}
		s.active = f
	}
	return nil
}

// recoverSegment parses one segment file. In the final segment a frame cut
// short at EOF is a torn tail: it is dropped and the file truncated back to
// the intact prefix. Everywhere else — and for any CRC mismatch — the
// damage is a loud error. It is the one torn-tail rule: a reopen and a live
// TruncateTail both repair through it.
func recoverSegment(name string, last bool, prev uint64) (segInfo, []Record, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return segInfo{}, nil, fmt.Errorf("persist: read segment: %w", err)
	}
	var recs []Record
	var off int64
	for off < int64(len(b)) {
		payload, next, err := readFrame(b, off)
		if errors.Is(err, errShortFrame) {
			if !last {
				return segInfo{}, nil, fmt.Errorf("persist: %s: truncated frame at offset %d in non-final segment", filepath.Base(name), off)
			}
			// Torn tail: drop the partial record, repair the file.
			if err := os.Truncate(name, off); err != nil {
				return segInfo{}, nil, fmt.Errorf("persist: truncate torn tail: %w", err)
			}
			break
		}
		if err != nil {
			return segInfo{}, nil, fmt.Errorf("persist: %s: offset %d: %w", filepath.Base(name), off, err)
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return segInfo{}, nil, fmt.Errorf("persist: %s: offset %d: corrupt record: %w", filepath.Base(name), off, err)
		}
		if prev != 0 && r.Seq != prev+1 {
			return segInfo{}, nil, fmt.Errorf("persist: %s: sequence gap: %d follows %d", filepath.Base(name), r.Seq, prev)
		}
		prev = r.Seq
		recs = append(recs, r)
		off = next
	}
	return segInfo{path: name, last: prev}, recs, nil
}

var errShortFrame = errors.New("frame extends past end of file")

// readFrame parses the frame at off, returning the payload and the offset
// one past the frame. errShortFrame reports a frame cut off by EOF — the
// only damage recovery may repair; a checksum mismatch is returned as a
// distinct loud error.
func readFrame(b []byte, off int64) ([]byte, int64, error) {
	if off+frameHeader > int64(len(b)) {
		return nil, 0, errShortFrame
	}
	n := binary.LittleEndian.Uint32(b[off:])
	sum := binary.LittleEndian.Uint32(b[off+4:])
	if n > maxFrame {
		return nil, 0, errShortFrame
	}
	end := off + frameHeader + int64(n)
	if end > int64(len(b)) {
		return nil, 0, errShortFrame
	}
	payload := b[off+frameHeader : end]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, errors.New("checksum mismatch")
	}
	return payload, end, nil
}

func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	copy(out[frameHeader:], payload)
	return out
}

func (s *FileStore) segPath(first uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%010d%s", segPrefix, first, segSuffix))
}

// Append implements Store.
func (s *FileStore) Append(epoch uint64, kind string, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("persist: store closed")
	}
	if epoch != s.Epoch() {
		return 0, ErrFenced
	}
	next := s.Seq() + 1
	// Roll to a fresh segment when the tail is full (or none is open).
	if s.active == nil || s.tailRecs >= s.segMax {
		if s.active != nil {
			if err := s.active.Close(); err != nil {
				return 0, fmt.Errorf("persist: close segment: %w", err)
			}
		}
		f, err := os.OpenFile(s.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if err != nil {
			return 0, fmt.Errorf("persist: create segment: %w", err)
		}
		s.active = f
		s.tailRecs = 0
		s.segs = append(s.segs, segInfo{path: s.segPath(next)})
	}
	payload, err := json.Marshal(Record{Seq: next, Kind: kind, Data: data})
	if err != nil {
		return 0, fmt.Errorf("persist: encode record: %w", err)
	}
	if _, err := s.active.Write(frame(payload)); err != nil {
		return 0, fmt.Errorf("persist: append: %w", err)
	}
	s.tailRecs++
	s.segs[len(s.segs)-1].last = next
	return s.memLog.Append(epoch, kind, data)
}

// WriteSnapshot implements Store: the snapshot document is framed into a
// temporary file and renamed over the live one (readers see the old or the
// new snapshot, never a torn one), then every segment the snapshot fully
// covers is unlinked.
func (s *FileStore) WriteSnapshot(epoch uint64, snap Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store closed")
	}
	if epoch != s.Epoch() {
		return ErrFenced
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("persist: encode snapshot: %w", err)
	}
	if err := s.writeAtomic(snapshotName, frame(payload)); err != nil {
		return err
	}
	if err := s.memLog.WriteSnapshot(epoch, snap); err != nil {
		return err
	}
	// Unlink fully covered segments; the tail segment always survives so
	// appends continue in place.
	var segs []segInfo
	for i, seg := range s.segs {
		tail := i == len(s.segs)-1
		if !tail && seg.last <= snap.Seq {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("persist: compact segment: %w", err)
			}
			continue
		}
		segs = append(segs, seg)
	}
	s.segs = segs
	return nil
}

func (s *FileStore) writeAtomic(name string, data []byte) error {
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("persist: write %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("persist: rename %s: %w", name, err)
	}
	return nil
}

// Fence implements Store: the new epoch is durably recorded (atomic
// rename) before it takes effect.
func (s *FileStore) Fence() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeAtomic(epochName, []byte(fmt.Sprintf("%d\n", s.Epoch()+1))); err != nil {
		return 0, err
	}
	return s.memLog.Fence()
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active != nil {
		return s.active.Close()
	}
	return nil
}

// TruncateTail implements TailTruncator: n bytes are chopped off the tail
// segment (the torn write), then the segment is recovered exactly as a
// reopen would recover it — the partial frame dropped, the file truncated
// back to the intact prefix — and the log rewound to match, so the next
// append continues from the rewound sequence.
func (s *FileStore) TruncateTail(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || s.tailRecs == 0 {
		return nil
	}
	tail := &s.segs[len(s.segs)-1]
	fi, err := s.active.Stat()
	if err != nil {
		return fmt.Errorf("persist: truncate tail: %w", err)
	}
	cut := fi.Size() - int64(n)
	if cut < 0 {
		cut = 0
	}
	if err := s.active.Truncate(cut); err != nil {
		return fmt.Errorf("persist: truncate tail: %w", err)
	}
	seg, recs, err := recoverSegment(tail.path, true, tail.last-uint64(s.tailRecs))
	if err != nil {
		return err
	}
	s.rewind(s.tailRecs - len(recs))
	*tail, s.tailRecs = seg, len(recs)
	return nil
}
