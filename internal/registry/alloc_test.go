package registry

import (
	"testing"

	"autoresched/internal/metrics"
)

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

	resolved := metrics.NewRegistry().Counter(CtrPersistAppends)
	if avg := testing.AllocsPerRun(200, resolved.Inc); avg != 0 {
		t.Errorf("pre-resolved Counter.Inc allocates %.1f objects per op, want 0", avg)
	}
	if got := resolved.Value(); got != 201 { // AllocsPerRun warms up once
		t.Errorf("counter = %d after 201 increments", got)
	}
}

// TestEligibleHostsAllocatesOnce: the dispatcher's fleet snapshot is sized
// before it is filled, so it costs one allocation however large the fleet.
func TestEligibleHostsAllocatesOnce(t *testing.T) {
	r, _ := gangReg(t, 256)
	var fleet []HostInfo
	if avg := testing.AllocsPerRun(50, func() { fleet = r.EligibleHosts(ProcInfo{}, nil) }); avg != 1 {
		t.Errorf("EligibleHosts at 256 hosts allocates %.1f objects per snapshot, want 1", avg)
	}
	if len(fleet) != 256 {
		t.Fatalf("EligibleHosts listed %d of 256 hosts", len(fleet))
	}
}
