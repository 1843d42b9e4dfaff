package registry

import (
	"strings"
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func TestRestartDropsSoftState(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	mreg := metrics.NewRegistry()
	ring := &metrics.Ring{}
	r := NewRegistry(WithClock(clock), WithMetrics(mreg), WithEvents(ring))
	if err := r.RegisterHost("ws1", proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 42, Name: "app"}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", proto.Status{State: "free"}); err != nil {
		t.Fatal(err)
	}

	r.Restart()

	if got := r.Hosts(); len(got) != 0 {
		t.Fatalf("hosts after restart = %+v", got)
	}
	if got := r.Processes("ws1"); len(got) != 0 {
		t.Fatalf("procs after restart = %+v", got)
	}
	// The next refresh is rejected — the signal monitors key their
	// re-registration on.
	err := r.ReportStatus("ws1", proto.Status{State: "free"})
	if err == nil || !strings.Contains(err.Error(), "unregistered host") {
		t.Fatalf("status after restart: %v", err)
	}
	if got := mreg.Counter(CtrRestarts).Value(); got != 1 {
		t.Fatalf("restart counter = %d", got)
	}
	// The decision trace records the restart.
	if ring.CountBy(metrics.SourceRegistry, string(EventRestart)) != 1 {
		t.Fatalf("no restart event in trace: %+v", ring.Events())
	}
	// Re-registration resumes normal service.
	if err := r.RegisterHost("ws1", proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", proto.Status{State: "free"}); err != nil {
		t.Fatal(err)
	}
}

// TestOpensStoreWrittenBeforePR23 is the on-disk compatibility fence: the
// directory under testdata/store-pr22 was written by the PR 22 tree (four
// records to a segment, a snapshot every six, one fence, a gang left
// pending, then five bytes torn off the tail segment), and that tree
// recovered it to the sequence and epoch below — the torn record dropped,
// the pending gang presumed aborted with one appended record. The digest is
// PR 25's: the snapshot document lost its "domSeq":0 key (PR 22's tree
// read f5c0cba39732fc16 for the same state).
func TestOpensStoreWrittenBeforePR23(t *testing.T) {
	dir := copyFixture(t, "testdata/store-pr22")
	store, err := persist.OpenFileStore(dir, persist.FileConfig{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer store.Close()
	r := NewRegistry(WithClock(vclock.NewAuto(vclock.Epoch)), WithStore(store))
	if store.Seq() != 16 || store.Epoch() != 1 || r.StateDigest() != "4716354739dadc8a" {
		t.Fatalf("recovered seq=%d epoch=%d digest=%s, want 16, 1, 4716354739dadc8a",
			store.Seq(), store.Epoch(), r.StateDigest())
	}
	if len(r.Hosts()) != 4 || len(r.Reserved()) != 0 {
		t.Fatalf("recovered %d hosts, reserved %v; want 4 and none", len(r.Hosts()), r.Reserved())
	}
}
