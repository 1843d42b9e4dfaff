package registry

import (
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/vclock"
)

// TestZeroAllocHotPaths pins the batcher's //hot:path contract at
// runtime: refreshing an already-buffered host's status — the ingest
// steady state between flushes, which at fleet scale is nearly every
// report — must not allocate. The slot index and the pending slice are
// preallocated to maxPending, so the replace branch only copies a struct.
func TestZeroAllocHotPaths(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	r := NewRegistry(WithClock(clock))
	b := NewBatcher(r, BatcherConfig{Clock: clock})
	if err := b.RegisterHost("ws1", staticFor("ws1")); err != nil {
		t.Fatal(err)
	}
	st := status("busy", 1.0, 10)
	if err := b.ReportStatus("ws1", st); err != nil { // occupy the slot
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := b.ReportStatus("ws1", st); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("batched status ingest allocates %.1f objects per op, want 0", avg)
	}
}

// TestZeroAllocInstruments pins the telemetry floor the hot paths rely on:
// with no metrics registry every instrument call is a no-op on a nil
// pointer, and a counter resolved at construction costs an atomic add —
// neither allocates, so counting stays legal under //hot:path.
func TestZeroAllocInstruments(t *testing.T) {
	var none *metrics.Registry
	if avg := testing.AllocsPerRun(200, func() {
		none.Counter("x").Inc()
		none.Counter("x").Add(2)
		none.Gauge("x").Set(1)
		none.Histogram("x").Observe(1)
	}); avg != 0 {
		t.Errorf("nil-registry instruments allocate %.1f objects per op, want 0", avg)
	}

	resolved := metrics.NewRegistry().Counter("registry/batch_flushes")
	if avg := testing.AllocsPerRun(200, resolved.Inc); avg != 0 {
		t.Errorf("pre-resolved Counter.Inc allocates %.1f objects per op, want 0", avg)
	}
	if got := resolved.Value(); got != 201 { // AllocsPerRun warms up once
		t.Errorf("counter = %d after 201 increments", got)
	}

}
