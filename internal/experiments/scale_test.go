package experiments

import (
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/registry"
)

// TestScaleEveryHeartbeatReachesTheRegistry: a monitor's refresh goes
// straight to the registry, so in the paper-sized sweep the registry
// decides once for every heartbeat the monitors send, and the sweep keeps
// its outcome.
func TestScaleEveryHeartbeatReachesTheRegistry(t *testing.T) {
	mreg := metrics.NewRegistry()
	rows, err := RunScale(ScaleConfig{Params: Params{Seed: 42, Metrics: mreg}, Hosts: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if got := mreg.Histogram(registry.MetricDecideSeconds).Count(); got != uint64(r.Heartbeats) {
		t.Errorf("the registry decided %d times for %d heartbeats", got, r.Heartbeats)
	}
	if r.Completed != 4 || !r.Correct || r.Overloads != 2 || r.MigrationsOrdered != 2 || r.MigrationsCommitted != 2 {
		t.Errorf("64-host sweep = %+v; want 4 completed, correct, 2 overloads, 2 ordered, 2 committed", r)
	}
}
