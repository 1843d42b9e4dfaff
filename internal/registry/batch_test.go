package registry

import (
	"fmt"
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

func TestReportStatusBatchAppliesAndReportsUnknown(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	r := NewRegistry(WithClock(clock))
	for _, h := range []string{"ws1", "ws2"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	err := r.ReportStatusBatch([]proto.HostStatus{
		{Host: "ws1", Status: status("free", 0.1, 3)},
		{Host: "ghost", Status: status("busy", 1, 10)},
		{Host: "ws2", Status: status("busy", 1.2, 40)},
	})
	if err == nil {
		t.Fatal("batch with unknown host: want error")
	}
	// The known hosts' reports applied despite the rejected one.
	hosts := r.Hosts()
	if hosts[0].State != rules.Free || hosts[1].State != rules.Busy {
		t.Fatalf("states after batch = %v/%v", hosts[0].State, hosts[1].State)
	}
}

func TestReportStatusBatchDecides(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	sink := &fakeSink{}
	r := newReg(t, clock, sink, nil) // warmup 2
	for _, h := range []string{"ws1", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{
		PID: 7, Name: "test_tree", Start: clock.Now().UnixNano(), SchemaXML: testTreeXML(t),
	}); err != nil {
		t.Fatal(err)
	}
	batch := []proto.HostStatus{
		{Host: "ws4", Status: status("free", 0.1, 5)},
		{Host: "ws1", Status: status("overloaded", 3, 200)},
	}
	// Batched reports feed the same damping: two consecutive overloaded
	// sightings order the migration, exactly as single reports would.
	if err := r.ReportStatusBatch(batch); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 0 {
		t.Fatal("order before warm-up complete")
	}
	if err := r.ReportStatusBatch(batch); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 1 {
		t.Fatalf("orders = %d, want 1", sink.count())
	}
	if got := sink.orders[0]; got.Host != "ws1" || got.Order.DestHost != "ws4" {
		t.Fatalf("order = %+v", got)
	}
}

func TestBatcherLatestWinsAndFlushAtMaxPending(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	mreg := metrics.NewRegistry()
	r := NewRegistry(WithClock(clock))
	b := NewBatcher(r, BatcherConfig{Clock: clock, Metrics: mreg})
	names := make([]string, maxPending)
	for i := range names {
		names[i] = fmt.Sprintf("ws%d", i+1)
		if err := b.RegisterHost(names[i], staticFor(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	// Two reports from ws1 coalesce to the latest; nothing reaches the
	// registry until the batch is due.
	if err := b.ReportStatus("ws1", status("busy", 1.5, 40)); err != nil {
		t.Fatal(err)
	}
	if err := b.ReportStatus("ws1", status("free", 0.1, 3)); err != nil {
		t.Fatal(err)
	}
	for _, h := range names[1 : maxPending-1] {
		if err := b.ReportStatus(h, status("free", 0.2, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Hosts()[0].Status.Load1; got != 0 {
		t.Fatalf("report reached the registry before the flush (load %v)", got)
	}
	// The last distinct host reaches maxPending and flushes them all.
	if err := b.ReportStatus(names[maxPending-1], status("free", 0.2, 4)); err != nil {
		t.Fatal(err)
	}
	hosts := r.Hosts()
	if hosts[0].Status.Load1 != 0.1 || hosts[maxPending-1].Status.Load1 != 0.2 {
		t.Fatalf("loads after flush = %v/%v, want 0.1 (latest wins) and 0.2",
			hosts[0].Status.Load1, hosts[maxPending-1].Status.Load1)
	}
	if got := mreg.Counter(CtrBatchFlushes).Value(); got != 1 {
		t.Fatalf("flushes = %d, want 1", got)
	}
	if got := mreg.Counter(CtrBatchedReports).Value(); got != maxPending {
		t.Fatalf("batched reports = %d, want %d (latest-wins coalescing)", got, maxPending)
	}
}

func TestBatcherRecoversAfterRegistryRestart(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	mreg := metrics.NewRegistry()
	r := NewRegistry(WithClock(clock))
	b := NewBatcher(r, BatcherConfig{Clock: clock, Metrics: mreg})
	for _, h := range []string{"ws1", "ws2"} {
		if err := b.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}

	// The registry crashes and loses its soft state; the batcher's next
	// flush re-registers its hosts from the retained statics and resends.
	r.Restart()
	if err := b.ReportStatus("ws1", status("busy", 1.5, 40)); err != nil {
		t.Fatal(err)
	}
	if err := b.ReportStatus("ws2", status("busy", 1.2, 30)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	hosts := r.Hosts()
	if len(hosts) != 2 || hosts[0].State != rules.Busy || hosts[1].State != rules.Busy {
		t.Fatalf("hosts after recovery = %+v", hosts)
	}
	if got := mreg.Counter(CtrReregisters).Value(); got != 2 {
		t.Fatalf("re-registers = %d, want 2", got)
	}
}
