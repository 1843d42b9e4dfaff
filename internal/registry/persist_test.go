package registry

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"autoresched/internal/events"
	"autoresched/internal/metrics"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func storedRegistry(t *testing.T, store persist.Store) (*Registry, *vclock.Manual, *metrics.Registry) {
	t.Helper()
	clock := vclock.NewManual(vclock.Epoch)
	mreg := metrics.NewRegistry()
	r := newFromConfig(Config{Clock: clock, Metrics: mreg, Store: store})
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
	clock.Advance(5 * time.Second)
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
	clock := vclock.NewManual(vclock.Epoch)
	var got []RestartEvent
	sink := events.On(func(ev RestartEvent) { got = append(got, ev) })
	r := newFromConfig(Config{Clock: clock, Store: store, Events: sink})
	if err := r.RegisterHost("ws1", proto.StaticInfo{}); err != nil {
		t.Fatal(err)
	}
	r.Restart()
	if len(got) != 1 || !got[0].Recovered || got[0].Hosts != 1 || got[0].Seq == 0 {
		t.Fatalf("typed restart events = %+v", got)
	}

	// Storeless restarts publish the payload too, with Recovered=false.
	got = nil
	r2 := newFromConfig(Config{Clock: clock, Events: sink})
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

func TestSnapshotCompactionKeepsBootstrapEquivalent(t *testing.T) {
	store := persist.NewMemStore()
	clock := vclock.NewManual(vclock.Epoch)
	mreg := metrics.NewRegistry()
	r := newFromConfig(Config{Clock: clock, Metrics: mreg, Store: store, SnapshotEvery: 10})
	for i := 1; i <= 8; i++ {
		if err := r.RegisterHost(fmt.Sprintf("ws%d", i), proto.StaticInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		clock.Advance(time.Second)
		for i := 1; i <= 8; i++ {
			if err := r.ReportStatus(fmt.Sprintf("ws%d", i), proto.Status{State: "busy"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if mreg.Counter(CtrPersistSnapshots).Value() == 0 {
		t.Fatal("no snapshot written despite SnapshotEvery")
	}
	snap, ok, err := store.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("store snapshot: ok=%v err=%v", ok, err)
	}
	if recs, err := store.ReadSince(0); err != nil || len(recs) == 0 || recs[0].Seq <= snap.Seq-uint64(len(recs)) {
		// Compaction happened: the log no longer starts at 1.
		if err != nil {
			t.Fatalf("ReadSince: %v", err)
		}
	}
	digest := r.StateDigest()
	r.Restart()
	if got := r.StateDigest(); got != digest {
		t.Fatalf("post-compaction recovery digest = %s, want %s", got, digest)
	}
}

// TestReplayBitIdentical4096Hosts is the acceptance check: replaying a
// 4096-host log (snapshot + suffix) restores state whose canonical
// encoding is bit-identical to the pre-crash one.
func TestReplayBitIdentical4096Hosts(t *testing.T) {
	store := persist.NewMemStore()
	clock := vclock.NewManual(vclock.Epoch)
	r := newFromConfig(Config{Clock: clock, Store: store, SnapshotEvery: 3000})
	const n = 4096
	for i := 0; i < n; i++ {
		if err := r.RegisterHost(fmt.Sprintf("ws%04d", i), proto.StaticInfo{CPUSpeed: float64(1 + i%7)}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(10 * time.Second)
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
	r.mu.Lock()
	pre, err := r.encodeStateLocked()
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if snap, ok, _ := store.LoadSnapshot(); !ok || snap.Seq == 0 {
		t.Fatal("expected a compacting snapshot mid-log")
	}

	r.Restart()

	r.mu.Lock()
	post, err := r.encodeStateLocked()
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, post) {
		t.Fatalf("replayed state not bit-identical: pre %d bytes, post %d bytes", len(pre), len(post))
	}
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
	clock := vclock.NewManual(vclock.Epoch)
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
	if lag := sb.Lag(); lag == 0 {
		t.Fatal("standby should be behind after the reserve")
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

func TestChangesSinceFeedsFollower(t *testing.T) {
	store := persist.NewMemStore()
	r, _, _ := storedRegistry(t, store)
	if err := r.RegisterHost("ws1", proto.StaticInfo{}); err != nil {
		t.Fatal(err)
	}
	seq := r.Seq()
	if seq == 0 {
		t.Fatal("Seq = 0 after a durable mutation")
	}
	if err := r.ReportStatus("ws1", proto.Status{State: "busy"}); err != nil {
		t.Fatal(err)
	}
	recs, err := r.ChangesSince(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != recKindHostStatus {
		t.Fatalf("ChangesSince(%d) = %+v", seq, recs)
	}
}

func TestFileBackedRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.OpenFileStore(dir, persist.FileConfig{SegmentRecords: 8})
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
	store2, err := persist.OpenFileStore(dir, persist.FileConfig{SegmentRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2, _, _ := storedRegistry(t, store2)
	if got := r2.StateDigest(); got != digest {
		t.Fatalf("file-backed warm start digest = %s, want %s", got, digest)
	}
}
