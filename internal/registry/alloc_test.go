package registry

import (
	"fmt"
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
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

// TestDurableHeartbeatAllocatesAsSoft: a storeless heartbeat allocates
// nothing (ReportStatus refills the registry's one status record), and
// journalling one allocates nothing per call that the storeless registry
// does not, amortised over 1024 heartbeats at 512 hosts with a snapshot
// every 256 records, so the folds are counted too. The fold refills one
// document, the store copies the snapshot into the buffer it holds and
// packs record bodies into shared chunks.
func TestDurableHeartbeatAllocatesAsSoft(t *testing.T) {
	const hosts, calls = 512, 1024
	perCall := func(opts ...Option) float64 {
		r := NewRegistry(append(opts, WithClock(vclock.NewAuto(vclock.Epoch)))...)
		names := make([]string, hosts)
		for i := range names {
			names[i] = fmt.Sprintf("ws%04d", i)
			if err := r.RegisterHost(names[i], proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		return testing.AllocsPerRun(calls, func() {
			if err := r.ReportStatus(names[i%hosts], proto.Status{State: "busy", Load1: float64(i)}); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	soft := perCall()
	if soft != 0 {
		t.Errorf("a storeless ReportStatus allocates %.0f objects per call, want 0", soft)
	}
	durable := perCall(WithStore(persist.NewMemStore()), WithSnapshotEvery(256))
	if durable > soft {
		t.Errorf("a durable ReportStatus allocates %.0f objects per call, a storeless one %.0f", durable, soft)
	}
}

// TestBootstrapAllocations pins a restart's allocations, independent of the
// fleet's size: the snapshot's hosts and processes decode into one slab
// each, the indexes are sized once, and the suffix replays through reused
// payloads out of one string.
func TestBootstrapAllocations(t *testing.T) {
	for _, n := range []int{512, 4096} {
		r := durableFleet(t, n)
		r.mu.Lock()
		avg := testing.AllocsPerRun(5, func() {
			if err := r.bootstrapLocked(); err != nil {
				t.Fatal(err)
			}
		})
		r.mu.Unlock()
		if avg > 128 {
			t.Errorf("a bootstrap of %d hosts allocates %.0f objects, want at most 128", n, avg)
		}
	}
}
