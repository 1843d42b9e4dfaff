package registry

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func storedRegistry(t *testing.T, store persist.Store) (*Registry, *vclock.Auto, *metrics.Registry) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	mreg := metrics.NewRegistry()
	r := NewRegistry(WithClock(clock), WithMetrics(mreg), WithStore(store))
	return r, clock, mreg
}

func TestRestartRecoversFromStore(t *testing.T) {
	store := persist.NewMemStore()
	r, clock, mreg := storedRegistry(t, store)
	for i := 1; i <= 4; i++ {
		if err := r.RegisterHost(fmt.Sprintf("ws%d", i), proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 42, Name: "app", Start: 7}); err != nil {
		t.Fatal(err)
	}
	clock.Sleep(5 * time.Second)
	if err := r.ReportStatus("ws2", proto.Status{State: "busy", Load1: 1.25}); err != nil {
		t.Fatal(err)
	}
	pre := r.StateDigest()

	r.Restart()

	if post := r.StateDigest(); post != pre {
		t.Fatalf("digest after recovery = %s, want %s", post, pre)
	}
	// No re-registration needed: the very next refresh is accepted.
	if err := r.ReportStatus("ws1", proto.Status{State: "free"}); err != nil {
		t.Fatalf("status after recovery rejected: %v", err)
	}
	hosts := r.Hosts()
	if len(hosts) != 4 || hosts[0].Name != "ws1" || hosts[3].Name != "ws4" {
		t.Fatalf("hosts after recovery = %+v", hosts)
	}
	if procs := r.Processes("ws1"); len(procs) != 1 || procs[0].PID != 42 {
		t.Fatalf("procs after recovery = %+v", procs)
	}
	if got := hosts[1].Status.Load1; got != 1.25 {
		t.Fatalf("recovered ws2 load = %v", got)
	}
	if mreg.Counter(CtrRestarts).Value() != 1 || mreg.Counter(CtrRecoveries).Value() != 1 {
		t.Fatalf("restart/recovery counters = %d/%d",
			mreg.Counter(CtrRestarts).Value(), mreg.Counter(CtrRecoveries).Value())
	}
}

func TestRestartRecoveryPublishesTypedEvent(t *testing.T) {
	store := persist.NewMemStore()
	clock := vclock.NewAuto(vclock.Epoch)
	var got []RestartEvent
	sink := metrics.On(func(ev RestartEvent) { got = append(got, ev) })
	r := NewRegistry(WithClock(clock), WithStore(store), WithEvents(sink))
	if err := r.RegisterHost("ws1", proto.StaticInfo{}); err != nil {
		t.Fatal(err)
	}
	r.Restart()
	if len(got) != 1 || !got[0].Recovered || got[0].Hosts != 1 || got[0].Seq == 0 {
		t.Fatalf("typed restart events = %+v", got)
	}

	// Storeless restarts publish the payload too, with Recovered=false.
	got = nil
	r2 := NewRegistry(WithClock(clock), WithEvents(sink))
	if err := r2.RegisterHost("ws1", proto.StaticInfo{}); err != nil {
		t.Fatal(err)
	}
	r2.Restart()
	if len(got) != 1 || got[0].Recovered || got[0].Hosts != 0 {
		t.Fatalf("storeless typed restart events = %+v", got)
	}
}

func TestWarmStartFromExistingStore(t *testing.T) {
	store := persist.NewMemStore()
	r, _, _ := storedRegistry(t, store)
	if err := r.RegisterHost("ws1", proto.StaticInfo{CPUSpeed: 2e6}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", proto.Status{State: "busy"}); err != nil {
		t.Fatal(err)
	}
	digest := r.StateDigest()

	// A second registry built over the same store (the restarted process)
	// boots into the identical state.
	r2, _, _ := storedRegistry(t, store)
	if got := r2.StateDigest(); got != digest {
		t.Fatalf("warm-start digest = %s, want %s", got, digest)
	}
}

// copyStore rebuilds a MemStore holding src's snapshot and log suffix, so a
// test can bootstrap from the primary's records without the bootstrap's own
// appends (presumed abort) reaching the primary's store.
func copyStore(t *testing.T, src persist.Store) *persist.MemStore {
	t.Helper()
	cp := persist.NewMemStore()
	snap, ok, err := src.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		if err := cp.WriteSnapshot(0, snap); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := src.ReadSince(snap.Seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if seq, err := cp.Append(0, rec.Kind, rec.Data); err != nil || seq != rec.Seq {
			t.Fatalf("copy record %d: seq %d err %v", rec.Seq, seq, err)
		}
	}
	return cp
}

// TestSnapshotCompactionKeepsBootstrapEquivalent drives every change-record
// kind through the public mutation methods and checks, after each step, that
// the three consumers of a record agree: the live registry that journalled
// it, a fresh bootstrap from the store, and a standby following the log —
// across the snapshot compactions SnapshotEvery forces along the way.
func TestSnapshotCompactionKeepsBootstrapEquivalent(t *testing.T) {
	store := persist.NewMemStore()
	clock := vclock.NewAuto(vclock.Epoch)
	mreg := metrics.NewRegistry()
	r := NewRegistry(WithClock(clock), WithMetrics(mreg), WithStore(store), WithSnapshotEvery(10))
	sb, err := NewStandby(store, WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var g *GangReservation
	reserve := func(hosts ...string) {
		t.Helper()
		var err error
		if g, err = r.ReserveHosts(hosts); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name    string
		pending bool // a reservation is unresolved after the step
		do      func()
	}{
		{"register hosts", false, func() {
			for i := 1; i <= 8; i++ {
				must(r.RegisterHost(fmt.Sprintf("ws%d", i), proto.StaticInfo{CPUSpeed: float64(i)}))
			}
		}},
		{"status", false, func() { must(r.ReportStatus("ws2", proto.Status{State: "busy", Load1: 1.5})) }},
		{"re-register known host", false, func() { must(r.RegisterHost("ws2", proto.StaticInfo{CPUSpeed: 9})) }},
		{"register processes", false, func() {
			must(r.RegisterProcess("ws1", proto.ProcessInfo{PID: 11, Name: "plain", Start: 7}))
			must(r.RegisterProcess("ws3", proto.ProcessInfo{PID: 31, Name: "test_tree", Start: 9, SchemaXML: testTreeXML(t)}))
		}},
		{"process exit", false, func() {
			must(r.ProcessExit("ws1", 11))
			must(r.ProcessExit("ws1", 11)) // already gone: no record
		}},
		{"reserve", true, func() { reserve("ws3", "ws4") }},
		{"unregister host holding a process and a reservation", true, func() { must(r.UnregisterHost("ws3")) }},
		{"commit of the poisoned reservation aborts", false, func() {
			if err := g.Commit(); !errors.Is(err, ErrReservationLost) {
				t.Fatalf("Commit = %v, want ErrReservationLost", err)
			}
		}},
		{"reserve again", true, func() { reserve("ws1", "ws2") }},
		{"commit", false, func() { must(g.Commit()) }},
		{"reserve a third time", true, func() { reserve("ws4") }},
		{"abort", false, func() { g.Abort() }},
		{"status rounds across the snapshot cadence", false, func() {
			for round := 0; round < 3; round++ {
				clock.Sleep(time.Second)
				for _, h := range r.Hosts() {
					must(r.ReportStatus(h.Name, proto.Status{State: "busy"}))
				}
			}
		}},
	}
	kinds := map[string]bool{}
	var seen uint64
	for _, step := range steps {
		step.do()
		recs, err := store.ReadSince(seen)
		must(err)
		for _, rec := range recs {
			kinds[rec.Kind] = true
			seen = rec.Seq
		}
		live := r.StateDigest()
		if _, err := sb.Sync(); err != nil {
			t.Fatalf("%s: standby sync: %v", step.name, err)
		}
		if got := sb.Registry().StateDigest(); got != live {
			t.Fatalf("%s: standby digest = %s, live %s", step.name, got, live)
		}
		if !step.pending {
			if got := NewRegistry(WithClock(clock), WithStore(store)).StateDigest(); got != live {
				t.Fatalf("%s: bootstrap digest = %s, live %s", step.name, got, live)
			}
			continue
		}
		// A bootstrap presumes the pending reservation aborted and journals
		// that, so it runs on a copy of the records — and must reach the
		// state a standby promoted over the same records reaches.
		boot := NewRegistry(WithClock(clock), WithStore(copyStore(t, store)))
		follower, err := NewStandby(copyStore(t, store), WithClock(clock))
		must(err)
		promoted, err := follower.Promote()
		must(err)
		if len(boot.gangs) != 0 || len(promoted.gangs) != 0 {
			t.Fatalf("%s: reservations survived presumed abort: %v / %v", step.name, boot.gangs, promoted.gangs)
		}
		if b, p := boot.StateDigest(), promoted.StateDigest(); b != p || b == live {
			t.Fatalf("%s: bootstrap digest %s, promoted %s, live (still pending) %s", step.name, b, p, live)
		}
	}
	for _, kind := range recordKinds(t) {
		if !kinds[kind] {
			t.Errorf("no step journalled a %s record", kind)
		}
	}
	if mreg.Counter(CtrPersistSnapshots).Value() == 0 {
		t.Fatal("no snapshot written despite SnapshotEvery")
	}
	if recs, err := store.ReadSince(0); err != nil || len(recs) == 0 || recs[0].Seq == 1 {
		t.Fatalf("log not compacted behind the snapshot: %d records, err %v", len(recs), err)
	}
	digest := r.StateDigest()
	r.Restart()
	if got := r.StateDigest(); got != digest {
		t.Fatalf("post-compaction recovery digest = %s, want %s", got, digest)
	}
}

// recordKinds lists every recKind* constant persist.go declares, read from
// the source so a kind added later cannot be left out of the checks here.
func recordKinds(t testing.TB) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "persist.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if !strings.HasPrefix(name.Name, "recKind") {
				continue
			}
			kind, err := strconv.Unquote(spec.Values[i].(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, kind)
		}
		return false
	})
	if len(kinds) == 0 {
		t.Fatal("no recKind* constants found in persist.go")
	}
	return kinds
}

// TestEveryRecordKindHasOneApply is the guard on the replay switch: each
// declared kind decodes to a payload applyLocked knows, and a kind (or
// payload) nobody declared is refused rather than skipped.
func TestEveryRecordKindHasOneApply(t *testing.T) {
	for _, kind := range recordKinds(t) {
		p := newPayload(kind)
		if p == nil {
			t.Fatalf("%s: no payload type", kind)
		}
		r := NewRegistry(WithClock(vclock.NewAuto(vclock.Epoch)))
		if err := r.applyLocked(p); err != nil && strings.Contains(err.Error(), "no apply") {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	r := NewRegistry(WithClock(vclock.NewAuto(vclock.Epoch)))
	if err := r.applyLocked(&struct{}{}); err == nil || !strings.Contains(err.Error(), "no apply") {
		t.Fatalf("apply of an undeclared payload = %v", err)
	}
	store := persist.NewMemStore()
	if _, err := store.Append(0, "made-up", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := r.catchUpLocked(store); err == nil || !strings.Contains(err.Error(), `unknown record kind "made-up"`) {
		t.Fatalf("replay of an undeclared kind = %v", err)
	}
}

// TestReplayBitIdentical4096Hosts is the acceptance check: replaying a
// 4096-host log (snapshot + suffix) restores state whose canonical
// encoding is bit-identical to the pre-crash one.
func TestReplayBitIdentical4096Hosts(t *testing.T) {
	store := persist.NewMemStore()
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock), WithStore(store), WithSnapshotEvery(3000))
	const n = 4096
	for i := 0; i < n; i++ {
		if err := r.RegisterHost(fmt.Sprintf("ws%04d", i), proto.StaticInfo{CPUSpeed: float64(1 + i%7)}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Sleep(10 * time.Second)
	states := []string{"free", "busy", "overloaded"}
	for i := 0; i < n; i++ {
		st := proto.Status{State: states[i%3], Load1: float64(i%11) / 4}
		if err := r.ReportStatus(fmt.Sprintf("ws%04d", i), st); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if err := r.RegisterProcess(fmt.Sprintf("ws%04d", i), proto.ProcessInfo{PID: 100 + i, Name: "rank"}); err != nil {
			t.Fatal(err)
		}
	}
	pre, preDigest := encodedState(r), r.StateDigest()
	if snap, ok, _ := store.LoadSnapshot(); !ok || snap.Seq == 0 {
		t.Fatal("expected a compacting snapshot mid-log")
	}

	r.Restart()

	if post := encodedState(r); !bytes.Equal(pre, post) || r.StateDigest() != preDigest {
		t.Fatalf("replayed state not bit-identical: pre %d bytes, post %d bytes", len(pre), len(post))
	}
}

// encodedState is r's snapshot document as the journal codec writes it.
func encodedState(r *Registry) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stateLocked()
	return new(codec).encode(&st)
}

func TestRestartPresumesPendingGangAborted(t *testing.T) {
	store := persist.NewMemStore()
	r, _, _ := storedRegistry(t, store)
	for i := 1; i <= 3; i++ {
		if err := r.RegisterHost(fmt.Sprintf("ws%d", i), proto.StaticInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := r.ReserveHosts([]string{"ws1", "ws2"})
	if err != nil {
		t.Fatal(err)
	}
	r.Restart()
	// The recovered registry holds no reservation marks.
	if res := r.Reserved(); len(res) != 0 {
		t.Fatalf("reserved after recovery = %v", res)
	}
	// The pre-crash handle is poisoned: its Commit fails.
	if err := g.Commit(); !errors.Is(err, ErrReservationLost) {
		t.Fatalf("pre-crash Commit = %v, want ErrReservationLost", err)
	}
	// The hosts are immediately reservable again.
	g2, err := r.ReserveHosts([]string{"ws1", "ws2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Commit(); err != nil {
		t.Fatalf("fresh reservation commit: %v", err)
	}
}

func TestStandbyPromotionFencesOldPrimary(t *testing.T) {
	store := persist.NewMemStore()
	primary, _, _ := storedRegistry(t, store)
	for i := 1; i <= 4; i++ {
		if err := primary.RegisterHost(fmt.Sprintf("ws%d", i), proto.StaticInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	clock := vclock.NewAuto(vclock.Epoch)
	mreg := metrics.NewRegistry()
	sb, err := NewStandby(store, WithClock(clock), WithMetrics(mreg))
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.Registry().StateDigest(); got != primary.StateDigest() {
		t.Fatalf("standby digest %s != primary %s", got, primary.StateDigest())
	}

	// The primary reserves a gang, then "dies" before resolving it.
	g, err := primary.ReserveHosts([]string{"ws1", "ws2"})
	if err != nil {
		t.Fatal(err)
	}

	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if mreg.Counter(CtrStandbyPromotions).Value() != 1 {
		t.Fatalf("promotions = %d", mreg.Counter(CtrStandbyPromotions).Value())
	}
	// No double admission: the deposed primary's commit is fenced...
	if err := g.Commit(); err == nil || !errors.Is(err, persist.ErrFenced) {
		t.Fatalf("deposed Commit = %v, want ErrFenced", err)
	}
	// ...and so is any fresh reservation it attempts.
	if _, err := primary.ReserveHosts([]string{"ws3"}); !errors.Is(err, persist.ErrFenced) {
		t.Fatalf("deposed ReserveHosts = %v, want ErrFenced", err)
	}
	// The promoted registry presumed the reservation aborted and can
	// re-admit the gang exactly once.
	g2, err := promoted.ReserveHosts([]string{"ws1", "ws2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Commit(); err != nil {
		t.Fatalf("promoted commit: %v", err)
	}
}

func TestFileBackedRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.OpenFileStore(dir, persist.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r, _, _ := storedRegistry(t, store)
	for i := 1; i <= 12; i++ {
		if err := r.RegisterHost(fmt.Sprintf("ws%02d", i), proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	digest := r.StateDigest()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the directory — the crashed-and-restarted control plane —
	// and boot a fresh registry from it.
	store2, err := persist.OpenFileStore(dir, persist.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2, _, _ := storedRegistry(t, store2)
	if got := r2.StateDigest(); got != digest {
		t.Fatalf("file-backed warm start digest = %s, want %s", got, digest)
	}
}
