package commander

import (
	"testing"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func TestMigrateDedupsRedeliveredOrders(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	mreg := metrics.NewRegistry()
	c := NewCommander("ws1", WithClock(clock), WithDedupWindow(30*time.Second), WithMetrics(mreg))
	p := &fakeProc{pid: 42}
	c.Manage(p)
	order := proto.MigrateOrder{PID: 42, DestHost: "ws4", DestAddr: "cmd://ws4"}
	if err := c.Migrate(order); err != nil {
		t.Fatal(err)
	}
	// The same order redelivered inside the window: acknowledged, not
	// re-executed.
	if err := c.Migrate(order); err != nil {
		t.Fatal(err)
	}
	if got := p.signals(); len(got) != 1 {
		t.Fatalf("signals = %+v, want 1", got)
	}
	if mreg.Counter(CtrOrdersDeduped).Value() != 1 {
		t.Fatalf("counter = %d", mreg.Counter(CtrOrdersDeduped).Value())
	}
	// A different destination is a new decision, not a duplicate.
	if err := c.Migrate(proto.MigrateOrder{PID: 42, DestHost: "ws5", DestAddr: "cmd://ws5"}); err != nil {
		t.Fatal(err)
	}
	// Past the window the same order executes again (a legitimate repeat
	// after the registry's cooldown).
	clock.Advance(time.Minute)
	if err := c.Migrate(order); err != nil {
		t.Fatal(err)
	}
	if got := p.signals(); len(got) != 3 {
		t.Fatalf("signals = %+v, want 3", got)
	}
	if mreg.Counter(CtrOrdersDeduped).Value() != 1 {
		t.Fatalf("counter = %d after the window", mreg.Counter(CtrOrdersDeduped).Value())
	}
}

func TestMigrateDedupDisabledByDefault(t *testing.T) {
	c := NewCommander("ws1")
	p := &fakeProc{pid: 7}
	c.Manage(p)
	order := proto.MigrateOrder{PID: 7, DestHost: "ws2", DestAddr: "cmd://ws2"}
	for i := 0; i < 2; i++ {
		if err := c.Migrate(order); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.signals(); len(got) != 2 {
		t.Fatalf("signals = %+v, want 2", got)
	}
}
