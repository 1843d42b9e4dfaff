package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestTornTailEveryByteOffset is the torn-write property test: a log
// truncated at any byte offset either recovers cleanly to a record prefix
// (the torn tail record dropped) or fails loudly — recovery never loads a
// record that was not fully appended. Truncation is the crash model: an
// append cut short leaves a prefix of the bytes it would have written. The
// reference log is one segment, so every truncation offset lands in the
// same file, in three encodings: binary bodies as stores write them, JSON
// bodies as older stores wrote them, and the two alternating, as in an
// older store appended to since. A torn tail of either kind is dropped the
// same way.
func TestTornTailEveryByteOffset(t *testing.T) {
	const n = 6
	logs := map[string][]byte{}
	for i := 1; i <= n; i++ {
		r := Record{Seq: uint64(i), Kind: "kind", Data: []byte(fmt.Sprintf("payload-%d", i))}
		bin, js := encodeRecord(nil, r), jsonFrame(t, r)
		logs["binary"] = append(logs["binary"], bin...)
		logs["json"] = append(logs["json"], js...)
		if i%2 == 0 {
			js = bin
		}
		logs["mixed"] = append(logs["mixed"], js...)
	}
	for name, full := range logs {
		t.Run(name, func(t *testing.T) { tearEveryByteOffset(t, full, n) })
	}
}

func tearEveryByteOffset(t *testing.T, full []byte, n int) {
	segName := segPrefix + "0000000001" + segSuffix

	// Frame boundaries of the reference log, for the prefix check.
	boundaries := map[int64]uint64{0: 0}
	var off int64
	var seq uint64
	for off < int64(len(full)) {
		_, next, err := readFrame(full, off)
		if err != nil {
			t.Fatalf("reference log unreadable at %d: %v", off, err)
		}
		seq++
		boundaries[next] = seq
		off = next
	}
	if seq != uint64(n) {
		t.Fatalf("reference log holds %d frames, want %d", seq, n)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), full[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: write: %v", cut, err)
		}
		r, err := OpenFileStore(dir, FileConfig{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed loudly on pure truncation: %v", cut, err)
		}
		// The recovered log must be the longest whole-record prefix at or
		// before the cut.
		var want uint64
		for b, s := range boundaries {
			if b <= int64(cut) && s > want {
				want = s
			}
		}
		if got := r.Seq(); got != want {
			t.Fatalf("cut %d: recovered seq = %d, want %d", cut, got, want)
		}
		recs, err := r.ReadSince(0)
		if err != nil {
			t.Fatalf("cut %d: ReadSince: %v", cut, err)
		}
		if uint64(len(recs)) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), want)
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) || string(rec.Data) != fmt.Sprintf("payload-%d", i+1) {
				t.Fatalf("cut %d: record %d corrupt: %+v", cut, i, rec)
			}
		}
		// The repair truncated the file: appending after recovery must
		// yield a log that reopens cleanly.
		if _, err := r.Append(0, "kind", []byte("post-recovery")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		rr, err := OpenFileStore(dir, FileConfig{})
		if err != nil {
			t.Fatalf("cut %d: reopen after repair+append: %v", cut, err)
		}
		if rr.Seq() != want+1 {
			t.Fatalf("cut %d: post-repair seq = %d, want %d", cut, rr.Seq(), want+1)
		}
		if err := rr.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestLiveTruncateTailMatchesReopen checks the injectable torn write: a
// TruncateTail on a live store leaves exactly the state a crash at that
// byte count plus a reopen would, and the torn store keeps appending into a
// log that reopens cleanly. With segmentRecords 4 the six records split 4+2,
// so the tears also stop exactly on a frame boundary and empty the tail
// segment (exactly, and by over-chopping) — the tail is the only segment a
// tear may touch.
func TestLiveTruncateTailMatchesReopen(t *testing.T) {
	// Every record below frames to the same length: one-byte seqs, same
	// kind, same-length data.
	frameLen := len(encodeRecord(nil, Record{Seq: 1, Kind: "kind", Data: []byte("payload-1")}))
	for _, segRecs := range []int{1024, 4} {
		for _, tear := range []int{1, 5, 30, frameLen, frameLen + 1, 2 * frameLen, 200, 10000} {
			name := fmt.Sprintf("seg%d/tear%d", segRecs, tear)
			dir := t.TempDir()
			s, err := OpenFileStore(dir, FileConfig{segmentRecords: segRecs})
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			for i := 1; i <= 6; i++ {
				if _, err := s.Append(0, "kind", []byte(fmt.Sprintf("payload-%d", i))); err != nil {
					t.Fatalf("%s: append: %v", name, err)
				}
			}
			tailRecs := (6-1)%segRecs + 1
			if b, err := os.ReadFile(s.segs[len(s.segs)-1].path); err != nil || len(b) != tailRecs*frameLen {
				t.Fatalf("%s: tail segment is %d bytes (%v), want %d frames of %d", name, len(b), err, tailRecs, frameLen)
			}
			if err := s.TruncateTail(tear); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// The tear drops every record that lost a byte, but never
			// reaches past the tail segment.
			want := 6 - (tear+frameLen-1)/frameLen
			if want < 6-tailRecs {
				want = 6 - tailRecs
			}
			liveRecs := mustRead(t, s)
			if s.Seq() != uint64(want) || len(liveRecs) != want {
				t.Fatalf("%s: live seq %d with %d records, want %d", name, s.Seq(), len(liveRecs), want)
			}
			// A second handle recovers what a crash here would leave.
			r, err := OpenFileStore(dir, FileConfig{segmentRecords: segRecs})
			if err != nil {
				t.Fatalf("%s: reopen: %v", name, err)
			}
			if got := mustRead(t, r); r.Seq() != s.Seq() || !reflect.DeepEqual(got, liveRecs) {
				t.Fatalf("%s: reopen seq %d records %+v != live seq %d records %+v", name, r.Seq(), got, s.Seq(), liveRecs)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
			// The live store appends on from the rewound sequence, into a
			// log a reopen accepts.
			if seq, err := s.Append(0, "kind", []byte("after-tear")); err != nil || seq != uint64(want+1) {
				t.Fatalf("%s: append after tear: seq=%d err=%v, want %d", name, seq, err, want+1)
			}
			liveRecs = mustRead(t, s)
			if err := s.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
			r, err = OpenFileStore(dir, FileConfig{segmentRecords: segRecs})
			if err != nil {
				t.Fatalf("%s: reopen after tear+append: %v", name, err)
			}
			if got := mustRead(t, r); r.Seq() != uint64(want+1) || !reflect.DeepEqual(got, liveRecs) {
				t.Fatalf("%s: reopen after tear+append: seq %d records %+v, want %+v", name, r.Seq(), got, liveRecs)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
		}
	}
}

func mustRead(t *testing.T, s Store) []Record {
	t.Helper()
	recs, err := s.ReadSince(0)
	if err != nil {
		t.Fatalf("ReadSince: %v", err)
	}
	return recs
}

// TestDamagedSnapshotRejectedLoudly covers the snapshot file, which — unlike
// the log tail — is replaced by atomic rename, so any damage is corruption,
// never a crash artifact: a torn file and an intact frame followed by stray
// bytes must both refuse to open, and the error must say what is wrong.
func TestDamagedSnapshotRejectedLoudly(t *testing.T) {
	master := t.TempDir()
	s, err := OpenFileStore(master, FileConfig{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := s.Append(0, "kind", []byte("payload")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.WriteSnapshot(0, Snapshot{Seq: 1, Data: []byte(`{"state":1}`)}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	full, err := os.ReadFile(filepath.Join(master, snapshotName))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		file       []byte
	}{
		{"torn", errShortFrame.Error(), full[:len(full)-3]},
		{"trailing bytes", fmt.Sprintf("%d-byte frame in a %d-byte file", len(full), len(full)+2), append(append([]byte(nil), full...), 0, 0)},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), tc.file, 0o644); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		_, err := OpenFileStore(dir, FileConfig{})
		if err == nil {
			t.Fatalf("%s: damaged snapshot opened", tc.name)
		}
		if !strings.Contains(err.Error(), "corrupt snapshot") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name the damage (%q)", tc.name, err, tc.want)
		}
	}
}
