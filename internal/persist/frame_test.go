package persist

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// jsonFrame frames r as stores written before the binary body did: JSON
// inside the same length and CRC header.
func jsonFrame(t testing.TB, r Record) []byte {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return sealFrame(append(make([]byte, frameHeader), body...))
}

// allocated returns the heap bytes one call of f allocates, as
// testing.AllocsPerRun counts allocations: on one P, averaged over runs.
func allocated(f func()) uint64 {
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// FuzzReadFrame holds the frame reader to three promises on arbitrary
// bytes read as a log segment: it never panics; decoding a binary body
// allocates at most twice the body's length (the record's kind, in the
// allocator's size classes), whatever its length prefix claims; and every
// binary body it accepts, as a record or as a snapshot, re-encodes to
// exactly the frame it was read from. JSON bodies, the encoding of older
// stores, are read but never written, so they are held to the first promise
// alone.
func FuzzReadFrame(f *testing.F) {
	rec := encodeRecord(nil, Record{Seq: 300, Kind: "host-status", Data: []byte{1, 2, 3}})
	f.Add(rec)
	f.Add(append(append([]byte(nil), rec...), rec[:len(rec)-2]...))
	f.Add(encodeSnapshot(nil, Snapshot{Seq: 7, Data: []byte("state")}))
	f.Add(jsonFrame(f, Record{Seq: 1, Kind: "k", Data: []byte("v")}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := int64(0); off < int64(len(data)); {
			body, next, err := readFrame(data, off)
			if err != nil {
				return
			}
			frame := data[off:next]
			off = next
			var r Record
			n := allocated(func() { r, err = decodeRecord(body, "") })
			snap, serr := decodeSnapshot(body)
			if len(body) > 0 && body[0] == '{' {
				continue
			}
			if n > 2*uint64(len(body))+16 {
				t.Fatalf("decoding a %d-byte record body allocated %d bytes", len(body), n)
			}
			if err == nil && !bytes.Equal(encodeRecord(nil, r), frame) {
				t.Fatalf("record %+v re-encodes to other bytes than % x", r, frame)
			}
			if serr == nil && !bytes.Equal(encodeSnapshot(nil, snap), frame) {
				t.Fatalf("snapshot %+v re-encodes to other bytes than % x", snap, frame)
			}
		}
	})
}

// TestRollUnlinksCoveredTail: the tail segment outlives the snapshot that
// covers it only until the next roll closes it, so no reopen reads records
// it must then discard; a segment the snapshot covers only in part stays.
func TestRollUnlinksCoveredTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, FileConfig{segmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	segments := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
		if err != nil {
			t.Fatal(err)
		}
		for i := range names {
			names[i] = filepath.Base(names[i])
		}
		return names
	}
	appendTo := func(last uint64) {
		t.Helper()
		for s.Seq() < last {
			if _, err := s.Append(0, "k", []byte{byte(s.Seq())}); err != nil {
				t.Fatal(err)
			}
		}
	}
	expect := func(step string, want ...string) {
		t.Helper()
		if got := segments(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: segments %v, want %v", step, got, want)
		}
	}
	appendTo(8)
	if err := s.WriteSnapshot(0, Snapshot{Seq: 8, Data: []byte("state@8")}); err != nil {
		t.Fatal(err)
	}
	expect("snapshot covering the tail", "log-0000000005.seg")
	appendTo(9)
	expect("roll after it", "log-0000000009.seg")
	appendTo(12)
	if err := s.WriteSnapshot(0, Snapshot{Seq: 10, Data: []byte("state@10")}); err != nil {
		t.Fatal(err)
	}
	appendTo(13)
	expect("roll past a partly covered tail", "log-0000000009.seg", "log-0000000013.seg")

	live := mustRead(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileStore(dir, FileConfig{segmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap, ok, err := r.LoadSnapshot()
	if err != nil || !ok || snap.Seq != 10 || r.Seq() != 13 || !reflect.DeepEqual(mustRead(t, r), live) {
		t.Fatalf("reopen: snapshot %d (%v, %v), seq %d, records %+v; want 10, 13, %+v", snap.Seq, ok, err, r.Seq(), mustRead(t, r), live)
	}
}
