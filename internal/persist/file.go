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
// into append-only log segments ([4-byte length][4-byte CRC32][body],
// little-endian headers), the snapshot is one framed document replaced by
// atomic rename, and the epoch lives in its own atomically renamed file.
// Bodies are binary (encodeRecord, encodeSnapshot); a JSON body, as stores
// written before them hold, is read but never written.
// Writes go through the OS page cache (no per-record fsync): the durability
// target is the paper's crash-restart of the control-plane process, not
// media loss, and recovery tolerates the resulting torn tail — a final frame
// cut short by the crash is dropped (and the file truncated back to the
// intact prefix), while a CRC mismatch anywhere else fails loudly rather
// than loading corrupt state.
//
// Segments roll every segmentRecords records and are named by the sequence
// number of their first record, so snapshot compaction can unlink every
// segment whose records the snapshot covers without rewriting anything: at
// the snapshot, and for the tail segment, when a roll closes it.
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
	snapSeq  uint64   // the snapshot's seq: segments ending there are compactable
	buf      []byte   // the frame being written, reused
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
	// segmentRecords rolls the log to a fresh segment after this many
	// records; zero selects 1024.
	segmentRecords int
}

const (
	snapshotName = "snapshot"
	epochName    = "epoch"
	segPrefix    = "log-"
	segSuffix    = ".seg"
	frameHeader  = 8 // 4-byte length + 4-byte CRC32
	bodyVersion  = 1 // first byte of every body written; never '{'
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
	if cfg.segmentRecords <= 0 {
		cfg.segmentRecords = 1024
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	s := &FileStore{dir: dir, segMax: cfg.segmentRecords}
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
	if s.snap, err = decodeSnapshot(payload); err != nil {
		return fmt.Errorf("persist: corrupt snapshot: %w", err)
	}
	s.has = true
	s.seq, s.snapSeq = s.snap.Seq, s.snap.Seq
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
	var kind string // the last record's, shared by a run of its kind
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
		r, err := decodeRecord(payload, kind)
		if err != nil {
			return segInfo{}, nil, fmt.Errorf("persist: %s: offset %d: corrupt record: %w", filepath.Base(name), off, err)
		}
		kind = r.Kind
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

// encodeRecord writes r's frame into dst's storage and returns it. The body
// is a version byte, the uvarint seq, the uvarint-prefixed kind, the data.
func encodeRecord(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(openFrame(dst), r.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.Kind)))
	return sealFrame(append(append(dst, r.Kind...), r.Data...))
}

// encodeSnapshot writes snap's frame into dst's storage and returns it. The
// body is a version byte, the seq in 8 bytes, the data.
func encodeSnapshot(dst []byte, snap Snapshot) []byte {
	dst = binary.LittleEndian.AppendUint64(openFrame(dst), snap.Seq)
	return sealFrame(append(dst, snap.Data...))
}

// openFrame starts a frame in dst's storage: room for the header, then the
// body's version byte.
func openFrame(dst []byte) []byte {
	return append(append(dst[:0], make([]byte, frameHeader)...), bodyVersion)
}

// sealFrame fills in the header of a frame whose body follows it.
func sealFrame(f []byte) []byte {
	binary.LittleEndian.PutUint32(f, uint32(len(f)-frameHeader))
	binary.LittleEndian.PutUint32(f[4:], crc32.ChecksumIEEE(f[frameHeader:]))
	return f
}

var errBody = errors.New("malformed body")

// decodeRecord reads a record body. Its Data aliases body. prevKind is
// returned in place of an equal kind, so a run of one kind shares a string.
func decodeRecord(body []byte, prevKind string) (Record, error) {
	if len(body) > 0 && body[0] == '{' {
		var old Record // a store written before the binary body
		err := json.Unmarshal(body, &old)
		return old, err
	}
	if len(body) == 0 || body[0] != bodyVersion {
		return Record{}, errBody
	}
	seq, n := uvarint(body[1:])
	klen, m := uvarint(body[1+n:])
	rest := body[1+n+m:]
	if n == 0 || m == 0 || klen > uint64(len(rest)) {
		return Record{}, errBody
	}
	r := Record{Seq: seq, Kind: prevKind, Data: rest[klen:]}
	if kind := rest[:klen]; string(kind) != prevKind {
		r.Kind = string(kind)
	}
	return r, nil
}

// decodeSnapshot reads a snapshot body. Its Data aliases body.
func decodeSnapshot(body []byte) (Snapshot, error) {
	if len(body) > 0 && body[0] == '{' {
		var old Snapshot // a store written before the binary body
		err := json.Unmarshal(body, &old)
		return old, err
	}
	if len(body) < 9 || body[0] != bodyVersion {
		return Snapshot{}, errBody
	}
	return Snapshot{Seq: binary.LittleEndian.Uint64(body[1:]), Data: body[9:]}, nil
}

// uvarint is binary.Uvarint refusing the non-minimal forms too (n == 0), so
// a body decodes only from the bytes its encoder writes.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
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
	// Roll to a fresh segment when the tail is full (or none is open). The
	// closed tail is compacted then if the snapshot already covers it.
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
		if err := s.compact(); err != nil {
			return 0, err
		}
	}
	s.buf = encodeRecord(s.buf, Record{Seq: next, Kind: kind, Data: data})
	if _, err := s.active.Write(s.buf); err != nil {
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
	s.buf = encodeSnapshot(s.buf, snap)
	if err := s.writeAtomic(snapshotName, s.buf); err != nil {
		return err
	}
	if err := s.memLog.WriteSnapshot(epoch, snap); err != nil {
		return err
	}
	s.snapSeq = snap.Seq
	return s.compact()
}

// compact unlinks every segment the snapshot fully covers but the tail,
// which survives so appends continue in place. Segments are in sequence
// order, so the covered ones are a prefix.
func (s *FileStore) compact() error {
	for len(s.segs) > 1 && s.segs[0].last <= s.snapSeq {
		if err := os.Remove(s.segs[0].path); err != nil {
			return fmt.Errorf("persist: compact segment: %w", err)
		}
		s.segs = s.segs[1:]
	}
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
