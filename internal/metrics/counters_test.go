package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	reg := NewRegistry()
	b := reg.Counter("b")
	b.Inc()
	reg.Counter("a").Add(3)
	b.Inc()
	if got := reg.Counter("a").Value(); got != 3 {
		t.Fatalf("a = %d, want 3", got)
	}
	if got := reg.Counter("b").Value(); got != 2 {
		t.Fatalf("b = %d, want 2", got)
	}
	if got := reg.Counter("fresh").Value(); got != 0 {
		t.Fatalf("fresh = %d, want 0", got)
	}
	snap := reg.Snapshot().Counters
	if snap["a"] != 3 || snap["b"] != 2 {
		t.Fatalf("Snapshot = %v", snap)
	}
	// A counter that was only resolved is exported at zero, so a scrape
	// sees it before the first event.
	if v, ok := snap["fresh"]; !ok || v != 0 {
		t.Fatalf("resolved-only counter missing from snapshot: %v", snap)
	}
}

func TestCounterNilSafe(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Inc() // must not panic
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter returned non-zero")
	}
	if len(reg.Snapshot().Counters) != 0 {
		t.Fatal("nil registry returned snapshot entries")
	}
}

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter("n").Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("n").Value(); got != 800 {
		t.Fatalf("n = %d, want 800", got)
	}
}

// Regression: Merge into a fresh registry used to drop the source's
// counters (they lived in a side set the receiver had to have attached),
// so `repro -metrics` snapshots carried gauges and histograms only.
func TestRegistryMergeCarriesCounters(t *testing.T) {
	run := NewRegistry()
	for _, n := range []int64{2, 5} {
		scenario := NewRegistry()
		scenario.Counter("core/migrations_committed").Add(n)
		scenario.Counter("registry/restarts").Inc()
		run.Merge(scenario)
	}
	want := map[string]int64{"core/migrations_committed": 7, "registry/restarts": 2}
	snap := run.Snapshot()
	if len(snap.Counters) != len(want) {
		t.Fatalf("merged counters = %v, want %v", snap.Counters, want)
	}
	for name, v := range want {
		if snap.Counters[name] != v {
			t.Fatalf("merged %s = %d, want %d", name, snap.Counters[name], v)
		}
	}

	var js bytes.Buffer
	if err := run.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counters["core/migrations_committed"] != 7 {
		t.Fatalf("WriteJSON counters = %v", decoded.Counters)
	}

	var prom strings.Builder
	if err := run.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"core_migrations_committed_total 7", "registry_restarts_total 2"} {
		if !strings.Contains(prom.String(), line) {
			t.Fatalf("prometheus output missing %q:\n%s", line, prom.String())
		}
	}
}
