package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// openers builds one fresh store per backend so every contract test runs
// against both.
func openers(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore() },
		"file": func() Store {
			s, err := OpenFileStore(t.TempDir(), FileConfig{segmentRecords: 4})
			if err != nil {
				t.Fatalf("open file store: %v", err)
			}
			return s
		},
	}
}

func TestAppendReadSince(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			for i := 1; i <= 10; i++ {
				seq, err := s.Append(0, "k", []byte(fmt.Sprintf("v%d", i)))
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if seq != uint64(i) {
					t.Fatalf("seq = %d, want %d", seq, i)
				}
			}
			if s.Seq() != 10 {
				t.Fatalf("Seq = %d, want 10", s.Seq())
			}
			recs, err := s.ReadSince(7)
			if err != nil {
				t.Fatalf("ReadSince: %v", err)
			}
			if len(recs) != 3 || recs[0].Seq != 8 || string(recs[2].Data) != "v10" {
				t.Fatalf("ReadSince(7) = %+v", recs)
			}
		})
	}
}

// TestReadSinceBounds reads every kind of position — zero, before the first
// record kept, mid-log, the tail and past it — from a fresh log, after a
// compaction and after a torn tail, and holds each read to one allocation
// (none when nothing follows since).
func TestReadSinceBounds(t *testing.T) {
	type read struct {
		since       uint64
		first, last uint64 // the Seqs returned; first 0 for none
	}
	phases := []struct {
		name  string
		do    func(Store) error
		reads []read
	}{
		{"fresh", func(Store) error { return nil }, []read{
			{0, 1, 10}, {5, 6, 10}, {9, 10, 10}, {10, 0, 0}, {99, 0, 0},
		}},
		{"compacted", func(s Store) error { return s.WriteSnapshot(0, Snapshot{Seq: 4, Data: []byte("state@4")}) }, []read{
			{0, 5, 10}, {3, 5, 10}, {4, 5, 10}, {7, 8, 10}, {10, 0, 0}, {99, 0, 0},
		}},
		{"torn", func(s Store) error { return s.(TailTruncator).TruncateTail(1) }, []read{
			{0, 5, 9}, {2, 5, 9}, {6, 7, 9}, {9, 0, 0}, {10, 0, 0},
		}},
		{"appended after the tear", func(s Store) error { _, err := s.Append(0, "k", []byte("again")); return err }, []read{
			{0, 5, 10}, {8, 9, 10}, {9, 10, 10}, {10, 0, 0},
		}},
	}
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			for i := 1; i <= 10; i++ {
				if _, err := s.Append(0, "k", []byte{byte(i)}); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			for _, ph := range phases {
				if err := ph.do(s); err != nil {
					t.Fatalf("%s: %v", ph.name, err)
				}
				for _, rd := range ph.reads {
					recs, err := s.ReadSince(rd.since)
					if err != nil {
						t.Fatalf("%s: ReadSince(%d): %v", ph.name, rd.since, err)
					}
					var want []uint64
					for seq := rd.first; rd.first > 0 && seq <= rd.last; seq++ {
						want = append(want, seq)
					}
					var got []uint64
					for _, r := range recs {
						got = append(got, r.Seq)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: ReadSince(%d) = seqs %v, want %v", ph.name, rd.since, got, want)
					}
					allocs := 0.0
					if len(want) > 0 {
						allocs = 1
					}
					if n := testing.AllocsPerRun(10, func() { _, _ = s.ReadSince(rd.since) }); n != allocs {
						t.Errorf("%s: ReadSince(%d) allocates %.0f objects, want %.0f", ph.name, rd.since, n, allocs)
					}
				}
			}
		})
	}
}

func TestSnapshotCompaction(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			for i := 1; i <= 9; i++ {
				if _, err := s.Append(0, "k", []byte{byte(i)}); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := s.WriteSnapshot(0, Snapshot{Seq: 6, Data: []byte("state@6")}); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			snap, ok, err := s.LoadSnapshot()
			if err != nil || !ok || snap.Seq != 6 || string(snap.Data) != "state@6" {
				t.Fatalf("LoadSnapshot = %+v ok=%v err=%v", snap, ok, err)
			}
			recs, err := s.ReadSince(0)
			if err != nil {
				t.Fatalf("ReadSince: %v", err)
			}
			if len(recs) != 3 || recs[0].Seq != 7 {
				t.Fatalf("post-compaction ReadSince(0) = %+v", recs)
			}
			// Appends continue from the pre-snapshot sequence.
			if seq, err := s.Append(0, "k", nil); err != nil || seq != 10 {
				t.Fatalf("append after snapshot: seq=%d err=%v", seq, err)
			}
		})
	}
}

func TestFenceRejectsStaleEpoch(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			if _, err := s.Append(0, "k", nil); err != nil {
				t.Fatalf("append: %v", err)
			}
			e, err := s.Fence()
			if err != nil || e != 1 {
				t.Fatalf("Fence = %d, %v", e, err)
			}
			if _, err := s.Append(0, "k", nil); !errors.Is(err, ErrFenced) {
				t.Fatalf("stale append err = %v, want ErrFenced", err)
			}
			if err := s.WriteSnapshot(0, Snapshot{Seq: 1}); !errors.Is(err, ErrFenced) {
				t.Fatalf("stale snapshot err = %v, want ErrFenced", err)
			}
			if _, err := s.Append(1, "k", nil); err != nil {
				t.Fatalf("new-epoch append: %v", err)
			}
		})
	}
}

func TestFileStoreReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, FileConfig{segmentRecords: 3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 1; i <= 8; i++ {
		if _, err := s.Append(0, "k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.WriteSnapshot(0, Snapshot{Seq: 5, Data: []byte("snap")}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := s.Fence(); err != nil {
		t.Fatalf("fence: %v", err)
	}
	if _, err := s.Append(1, "k", []byte("v9")); err != nil {
		t.Fatalf("append post-fence: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := OpenFileStore(dir, FileConfig{segmentRecords: 3})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.Epoch() != 1 {
		t.Fatalf("recovered epoch = %d, want 1", r.Epoch())
	}
	snap, ok, err := r.LoadSnapshot()
	if err != nil || !ok || snap.Seq != 5 || string(snap.Data) != "snap" {
		t.Fatalf("recovered snapshot = %+v ok=%v err=%v", snap, ok, err)
	}
	recs, err := r.ReadSince(snap.Seq)
	if err != nil {
		t.Fatalf("ReadSince: %v", err)
	}
	if len(recs) != 4 || recs[0].Seq != 6 || string(recs[3].Data) != "v9" {
		t.Fatalf("recovered suffix = %+v", recs)
	}
	if seq, err := r.Append(1, "k", nil); err != nil || seq != 10 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestFileStoreCompactionUnlinksSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, FileConfig{segmentRecords: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	for i := 1; i <= 7; i++ {
		if _, err := s.Append(0, "k", []byte{byte(i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.WriteSnapshot(0, Snapshot{Seq: 6, Data: []byte("x")}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments after compaction = %v, want just the tail", segs)
	}
}

func TestFileStoreCorruptMidFileFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, FileConfig{segmentRecords: 1024})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := s.Append(0, "k", []byte("payload")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("glob = %v, %v", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flip a payload byte in the middle of the file: CRC must catch it.
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenFileStore(dir, FileConfig{}); err == nil {
		t.Fatal("open of corrupt store succeeded, want loud error")
	}
}

func TestMemTruncateTailDropsNewestRecord(t *testing.T) {
	s := NewMemStore()
	for i := 1; i <= 3; i++ {
		if _, err := s.Append(0, "k", []byte{byte(i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.TruncateTail(1); err != nil {
		t.Fatalf("TruncateTail: %v", err)
	}
	if s.Seq() != 2 {
		t.Fatalf("Seq after tear = %d, want 2", s.Seq())
	}
	if seq, err := s.Append(0, "k", []byte{9}); err != nil || seq != 3 {
		t.Fatalf("append after tear: seq=%d err=%v", seq, err)
	}
	recs, err := s.ReadSince(0)
	if err != nil || len(recs) != 3 || recs[2].Data[0] != 9 {
		t.Fatalf("ReadSince after tear = %+v, %v", recs, err)
	}
}

// TestMemStoreAllocations pins the store's copies: Append packs bodies into
// shared chunks, well under one allocation per record amortised, and a warm
// WriteSnapshot copies into the buffer the store already holds.
func TestMemStoreAllocations(t *testing.T) {
	s := NewMemStore()
	body := make([]byte, 88) // a heartbeat record's body
	const batch = 1000
	perRecord := testing.AllocsPerRun(10, func() {
		for i := 0; i < batch; i++ {
			if _, err := s.Append(0, "k", body); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
	}) / batch
	if perRecord >= 0.05 {
		t.Errorf("Append allocates %.3f objects per record, want < 0.05", perRecord)
	}
	doc := make([]byte, 64<<10)
	write := func() {
		if err := s.WriteSnapshot(0, Snapshot{Seq: s.Seq(), Data: doc}); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}
	write()
	if avg := testing.AllocsPerRun(100, write); avg != 0 {
		t.Errorf("a warm WriteSnapshot allocates %.1f objects, want 0", avg)
	}
}

// TestBackendsAgreeStepByStep drives both backends through one seeded
// sequence of appends, snapshots, fences, stale-epoch writes and torn tails
// (a tear always follows the append it tears, the crash model) and compares
// everything the contract exposes after every step — then once more after
// the file store has been closed and reopened, so recovery is held to the
// same answer. With four records to a segment the sequence crosses rolls,
// compactions and tears of a tail segment's only record. The caller reuses
// one buffer for every body and snapshot, overwriting it after each write as
// the registry's journal buffer is overwritten, and every ReadSince and
// LoadSnapshot result is held to the end of the run and must still read as
// it did when it was taken: what a store hands out is never written again.
func TestBackendsAgreeStepByStep(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		mem := NewMemStore()
		file, err := OpenFileStore(dir, FileConfig{segmentRecords: 4})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		type taken struct {
			at       string
			got, was any
		}
		var held []taken
		hold := func(at string, results ...any) {
			for _, v := range results {
				held = append(held, taken{at, v, deepCopy(v)})
			}
		}
		agree := func(step int, op string) {
			t.Helper()
			ms, mok, _ := mem.LoadSnapshot()
			fs, fok, _ := file.LoadSnapshot()
			mr, fr := mustRead(t, mem), mustRead(t, file)
			if mem.Seq() != file.Seq() || mem.Epoch() != file.Epoch() || mok != fok ||
				!reflect.DeepEqual(ms, fs) || !reflect.DeepEqual(mr, fr) {
				t.Fatalf("seed %d step %d (%s): mem seq=%d epoch=%d snap=%+v recs=%+v\nfile seq=%d epoch=%d snap=%+v recs=%+v",
					seed, step, op, mem.Seq(), mem.Epoch(), ms, mr, file.Seq(), file.Epoch(), fs, fr)
			}
			hold(fmt.Sprintf("seed %d step %d (%s)", seed, step, op), ms, fs, mr, fr)
		}
		var buf []byte // the caller's one write buffer
		overwrite := func() {
			for i := range buf {
				buf[i] = '#'
			}
		}
		var snapSeq uint64
		for step := 0; step < 200; step++ {
			op := []string{"append", "append", "append", "append+tear", "snapshot", "fence", "stale", "reopen"}[rng.Intn(8)]
			both := func(do func(Store) error) {
				t.Helper()
				merr, ferr := do(mem), do(file)
				if stale := op == "stale"; errors.Is(merr, ErrFenced) != stale || errors.Is(ferr, ErrFenced) != stale {
					t.Fatalf("seed %d step %d (%s): mem err %v, file err %v", seed, step, op, merr, ferr)
				}
			}
			switch op {
			case "append", "append+tear":
				buf = fmt.Appendf(buf[:0], "s%d-%d", seed, step)
				both(func(s Store) error { _, err := s.Append(s.Epoch(), "k", buf); return err })
				overwrite()
				if op == "append+tear" {
					hold(fmt.Sprintf("seed %d step %d, before the tear", seed, step), mustRead(t, mem), mustRead(t, file))
					n := 1 + rng.Intn(frameHeader+len(buf))
					both(func(s Store) error { return s.(TailTruncator).TruncateTail(n) })
				}
			case "snapshot":
				snapSeq += uint64(rng.Intn(int(mem.Seq()-snapSeq) + 1))
				buf = fmt.Appendf(buf[:0], "state@%d", snapSeq)
				snap := Snapshot{Seq: snapSeq, Data: buf}
				both(func(s Store) error { return s.WriteSnapshot(s.Epoch(), snap) })
				overwrite()
			case "fence":
				both(func(s Store) error { _, err := s.Fence(); return err })
			case "stale":
				if rng.Intn(2) == 0 {
					both(func(s Store) error { _, err := s.Append(s.Epoch()+1, "k", nil); return err })
				} else {
					both(func(s Store) error { return s.WriteSnapshot(s.Epoch()+1, Snapshot{Seq: s.Seq()}) })
				}
			case "reopen":
				if err := file.Close(); err != nil {
					t.Fatalf("seed %d step %d: close: %v", seed, step, err)
				}
				if file, err = OpenFileStore(dir, FileConfig{segmentRecords: 4}); err != nil {
					t.Fatalf("seed %d step %d: reopen: %v", seed, step, err)
				}
			}
			agree(step, op)
		}
		if err := file.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		for _, h := range held {
			if !reflect.DeepEqual(h.got, h.was) {
				t.Fatalf("a result taken at %s was overwritten: now %+v, was %+v", h.at, h.got, h.was)
			}
		}
	}
}

// deepCopy copies a ReadSince or LoadSnapshot result down to its bytes.
func deepCopy(v any) any {
	switch v := v.(type) {
	case Snapshot:
		return Snapshot{Seq: v.Seq, Data: bytes.Clone(v.Data)}
	case []Record:
		var out []Record
		for _, r := range v {
			out = append(out, Record{Seq: r.Seq, Kind: r.Kind, Data: bytes.Clone(r.Data)})
		}
		return out
	}
	panic(fmt.Sprintf("deepCopy: %T", v))
}
