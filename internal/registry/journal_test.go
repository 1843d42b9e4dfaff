package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/journal.golden from the current codec")

// journalSamples is one payload of every change-record kind, in the order
// the kinds are declared.
func journalSamples() []struct {
	kind string
	p    payload
} {
	at := vclock.Epoch.Add(1500 * time.Millisecond)
	return []struct {
		kind string
		p    payload
	}{
		{recKindHostRegister, &recHostRegister{Host: "ws1", Static: sampleStatic(), At: at}},
		{recKindHostStatus, &recHostStatus{Host: "ws1", Status: sampleStatus(), At: at}},
		{recKindHostUnregister, &recHostUnregister{Host: "ws2"}},
		{recKindProcRegister, &recProcRegister{Host: "ws1", Info: proto.ProcessInfo{
			PID: 101, Name: "test_tree", Start: at.UnixNano(),
			SchemaXML: `<applicationSchema><name>test_tree</name></applicationSchema>`,
		}}},
		{recKindProcExit, &recProcExit{Host: "ws1", PID: 101}},
		{recKindGangReserve, &recGangReserve{ID: 3, Hosts: []string{"ws1", "ws2"}}},
		{recKindGangResolve, &recGangResolve{ID: 3, Commit: true}},
	}
}

func sampleStatic() proto.StaticInfo {
	return proto.StaticInfo{Addr: "ws1:7000", OS: "linux", Arch: "amd64", CPUSpeed: 2400, MemTotal: 8 << 30,
		Software: []string{"hpcm", "lam-mpi"}}
}

func sampleStatus() proto.Status {
	return proto.Status{State: "overloaded", Grade: 2, Load1: 3.25, Load5: 1.0625, CPUUtilPct: 97.5, NumProcs: 143,
		Sockets: 12, NetInMBps: 7.2, NetOutMBps: 1e-7, MemAvailPct: 12.5, MemAvail: 16 << 20, DiskAvail: 1 << 40}
}

// sampleState is a two-host snapshot document holding a process and a
// pending gang.
func sampleState() *persistedState {
	at := vclock.Epoch.Add(1500 * time.Millisecond)
	return &persistedState{RegSeq: 2, GangSeq: 3,
		Hosts: []persistedHost{
			{Name: "ws1", Static: sampleStatic(), Status: sampleStatus(), State: rules.Overloaded, LastSeen: at, RegOrder: 1},
			{Name: "ws2", Status: proto.Status{State: "free"}, State: rules.Free, LastSeen: vclock.Epoch, RegOrder: 2},
		},
		Procs: []persistedProc{{Host: "ws1", PID: 101, Name: "test_tree", Start: at}},
		Gangs: []persistedGang{{ID: 3, Hosts: []string{"ws1", "ws2"}}},
	}
}

// TestJournalGolden pins the journal's bytes, both layers: every sample
// payload and the snapshot document as the codec writes them, and the frames
// a FileStore wraps them in, one hex line each, so that a change to what a
// store holds is a reviewed diff. Every payload also decodes back to itself.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.OpenFileStore(dir, persist.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	line := func(name string, b []byte) { fmt.Fprintf(&got, "%-24s %s\n", name, hex.EncodeToString(b)) }
	var e codec
	for _, s := range journalSamples() {
		data := e.encode(s.p)
		line(s.kind, data)
		checkRoundTrip(t, data, s.p)
		if _, err := store.Append(0, s.kind, data); err != nil {
			t.Fatal(err)
		}
	}
	doc := e.encode(sampleState())
	line("snapshot", doc)
	checkRoundTrip(t, doc, sampleState())
	if err := store.WriteSnapshot(0, persist.Snapshot{Seq: store.Seq(), Data: doc}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "log-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	log, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range journalSamples() {
		n := 8 + int(binary.LittleEndian.Uint32(log))
		line(fmt.Sprintf("frame %d %s", i+1, s.kind), log[:n])
		log = log[n:]
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	line("frame snapshot", snap)

	golden := filepath.Join("testdata", "journal.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the journal format changed; if that is deliberate, rerun with -update and review the diff.\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	var kinds []string
	for _, s := range journalSamples() {
		kinds = append(kinds, s.kind)
	}
	if want := recordKinds(t); !reflect.DeepEqual(kinds, want) {
		t.Fatalf("samples cover %v, the declared kinds are %v", kinds, want)
	}
}

func checkRoundTrip(t *testing.T, data []byte, want payload) {
	t.Helper()
	back := reflect.New(reflect.TypeOf(want).Elem()).Interface().(payload)
	var d codec
	if err := d.decode(data, back); err != nil {
		t.Fatalf("%T: %v", want, err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("%T round trip:\n got %+v\nwant %+v", want, back, want)
	}
}

// TestJournalKeepsEveryBit: floats travel as their IEEE-754 bits (NaN,
// infinities and negative zero included), integers at their extremes, and
// times as Unix nanoseconds that come back in UTC whatever zone they were
// written from.
func TestJournalKeepsEveryBit(t *testing.T) {
	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	in := &recHostStatus{Host: "", At: time.Date(2004, 4, 1, 12, 0, 0, 1, zone), Status: proto.Status{
		Grade: math.NaN(), Load1: math.Inf(-1), Load5: math.Copysign(0, -1), CPUUtilPct: math.SmallestNonzeroFloat64,
		NumProcs: math.MinInt64, Sockets: math.MaxInt64, MemAvail: math.MinInt64, DiskAvail: math.MaxInt64,
	}}
	var e codec
	data := e.encode(in)
	var d codec
	out := new(recHostStatus)
	if err := d.decode(data, out); err != nil {
		t.Fatal(err)
	}
	if !out.At.Equal(in.At) || out.At.Location() != time.UTC {
		t.Fatalf("time %v came back as %v", in.At, out.At)
	}
	out.At = in.At
	f := func(s proto.Status) [4]uint64 {
		return [4]uint64{math.Float64bits(s.Grade), math.Float64bits(s.Load1), math.Float64bits(s.Load5), math.Float64bits(s.CPUUtilPct)}
	}
	if f(out.Status) != f(in.Status) || out.Status.NumProcs != in.Status.NumProcs || out.Status.Sockets != in.Status.Sockets ||
		out.Status.MemAvail != in.Status.MemAvail || out.Status.DiskAvail != in.Status.DiskAvail {
		t.Fatalf("status %+v came back as %+v", in.Status, out.Status)
	}
	if !bytes.Equal(e.encode(out), data) {
		t.Fatal("re-encoding differs")
	}
}

// allocated returns the heap bytes one call of f allocates, as
// testing.AllocsPerRun counts allocations: on one P, averaged over runs.
func allocated(f func()) uint64 {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// FuzzJournalDecode reads arbitrary bytes as every payload the journal
// holds — each change-record kind and the snapshot document — and holds the
// decoder to three promises: it never panics; it allocates in proportion
// to the input whatever its length prefixes claim (one copy of the input,
// plus lists no longer than the input could fill); and a payload it accepts
// re-encodes to exactly the input. JSON payloads, the encoding of older
// stores, are read but never written, so they are held to the first promise
// alone.
func FuzzJournalDecode(f *testing.F) {
	var e codec
	for _, s := range journalSamples() {
		f.Add(append([]byte(nil), e.encode(s.p)...))
	}
	doc := e.encode(sampleState())
	f.Add(append([]byte(nil), doc...))
	f.Add(doc[:len(doc)/2])
	f.Add([]byte(`{"host":"ws1","pid":7}`))
	f.Add([]byte{journalVersion, 0x80, 0})
	payloads := []func() payload{func() payload { return new(persistedState) }}
	for _, kind := range recordKinds(f) {
		payloads = append(payloads, func() payload { return newPayload(kind) })
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		legacy := len(data) > 0 && data[0] == '{'
		for _, fresh := range payloads {
			p := fresh()
			var d codec
			err := d.decode(data, p)
			if legacy {
				continue
			}
			// 32 bytes per input byte: the input's copy and a string header
			// per byte, with room for the allocator's size classes.
			n := allocated(func() { _ = d.decode(data, fresh()) })
			if limit := 32*uint64(len(data)) + 1024; n > limit {
				t.Fatalf("%T: decoding %d bytes allocated %d", p, len(data), n)
			}
			if err == nil && !bytes.Equal(e.encode(p), data) {
				t.Fatalf("%T: %+v re-encodes to other bytes than % x", p, p, data)
			}
		}
	})
}

// TestUpgradeInPlace takes a store written before the binary journal
// (store-pr22: JSON frames holding JSON payloads), opens it, and goes on
// writing binary records and a binary snapshot into it; every reopen on the
// way — including the one where a segment holds both encodings — must come
// back at the live registry's sequence and digest.
func TestUpgradeInPlace(t *testing.T) {
	dir := copyFixture(t, "testdata/store-pr22")
	open := func() *persist.FileStore {
		t.Helper()
		s, err := persist.OpenFileStore(dir, persist.FileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	clock := vclock.NewAuto(vclock.Epoch)
	store := open()
	r := NewRegistry(WithClock(clock), WithStore(store))
	reopen := func(step string) {
		t.Helper()
		seq, digest := r.Seq(), r.StateDigest()
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		store = open()
		r = NewRegistry(WithClock(clock), WithStore(store))
		if r.Seq() != seq || r.StateDigest() != digest {
			t.Fatalf("%s: reopened at seq %d digest %s, live %d %s", step, r.Seq(), r.StateDigest(), seq, digest)
		}
	}
	defer func() { store.Close() }()
	// Opening appended the presumed abort of the fixture's pending gang, a
	// binary frame in the segment of JSON frames it tore.
	reopen("binary frame after JSON frames")

	hosts := r.Hosts()
	clock.Sleep(time.Second)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.ReportStatus(hosts[0].Name, proto.Status{State: "busy", Load1: 1.5}))
	must(r.RegisterProcess(hosts[1].Name, proto.ProcessInfo{PID: 77, Name: "jacobi", Start: clock.Now().UnixNano()}))
	g, err := r.ReserveHosts([]string{hosts[2].Name, hosts[3].Name})
	must(err)
	must(g.Commit())
	reopen("binary records")

	r.mu.Lock()
	r.snapshotLocked(r.lastApplied)
	r.mu.Unlock()
	reopen("binary snapshot")
	if snap, ok, err := store.LoadSnapshot(); err != nil || !ok || snap.Seq != r.Seq() || snap.Data[0] != journalVersion {
		t.Fatalf("snapshot seq %d (ok %v, err %v), want a binary one at %d", snap.Seq, ok, err, r.Seq())
	}
}

// copyFixture copies a testdata store directory into a fresh one, so a test
// can open it for writing.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture files = %v, %v", names, err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDigestIndependentOfLocalZone: a registry whose clock reads in a
// non-UTC local zone recovers — by Restart and by promoting a standby — to
// the digest it had before the crash. The journal stores instants, not
// zones, so the registry keeps its timestamps in UTC.
func TestDigestIndependentOfLocalZone(t *testing.T) {
	saved := time.Local
	time.Local = time.FixedZone("UTC+5:30", 5*3600+1800)
	t.Cleanup(func() { time.Local = saved })

	clock := vclock.NewAuto(time.Date(2004, 4, 1, 9, 30, 0, 0, time.Local))
	store, err := persist.OpenFileStore(t.TempDir(), persist.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewRegistry(WithClock(clock), WithStore(store), WithSnapshotEvery(4))
	for i := 1; i <= 3; i++ {
		if err := r.RegisterHost(fmt.Sprintf("ws%d", i), proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 42, Name: "app", Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		clock.Sleep(time.Second)
		if err := r.ReportStatus(fmt.Sprintf("ws%d", i), proto.Status{State: "busy"}); err != nil {
			t.Fatal(err)
		}
	}
	pre := r.StateDigest()
	sb, err := NewStandby(store, WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	r.Restart()
	if got := r.StateDigest(); got != pre {
		t.Fatalf("digest after Restart = %s, before the crash %s", got, pre)
	}
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if got := promoted.StateDigest(); got != pre {
		t.Fatalf("promoted standby digest = %s, before the crash %s", got, pre)
	}
}
