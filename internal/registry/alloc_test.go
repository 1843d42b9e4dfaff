package registry

import (
	"fmt"
	"reflect"
	"runtime"
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
// before it is filled, so it costs one allocation however large the fleet,
// and it holds a 64-byte HostFit per host, so at 256 hosts that allocation
// is 16 KiB of records, which the heap's 8-byte header on an object with
// pointers rounds up to its 18 KiB size class. A copy of every host's whole
// record would take 60 KiB.
func TestEligibleHostsAllocatesOnce(t *testing.T) {
	const hosts, runs = 256, 50
	if size := reflect.TypeFor[HostFit]().Size(); size > 64 {
		t.Errorf("a HostFit takes %d bytes, want at most 64", size)
	}
	r, _ := gangReg(t, hosts)
	var fleet []HostFit
	snapshot := func() { fleet = r.EligibleHosts(ProcInfo{}, nil) }
	if avg := testing.AllocsPerRun(runs, snapshot); avg != 1 {
		t.Errorf("EligibleHosts at %d hosts allocates %.1f objects per snapshot, want 1", hosts, avg)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		snapshot()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 18<<10 {
		t.Errorf("EligibleHosts at %d hosts allocates %d bytes per snapshot, want at most %d", hosts, b, 18<<10)
	}
	if len(fleet) != hosts {
		t.Fatalf("EligibleHosts listed %d of %d hosts", len(fleet), hosts)
	}
}

// TestGangAdmissionAllocs pins what a gang admission allocates on a durable
// registry: a PlaceGang or a ReserveHosts and its Commit allocate the
// reservation and its hosts, and nothing else per call — the duplicate
// check scans the gang, the journal records are the registry's own, the
// durable view shares the reservation's hosts, and the store packs record
// bodies into shared chunks.
func TestGangAdmissionAllocs(t *testing.T) {
	const gang = 4
	r, _, _ := storedRegistry(t, persist.NewMemStore())
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i+1)
		if err := r.RegisterHost(names[i], staticFor(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	place := func() {
		g, ok := r.PlaceGang(ProcInfo{Name: "job"}, gang, nil)
		if !ok {
			t.Fatal("PlaceGang declined on a free fleet")
		}
		if err := g.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	reserve := func() {
		g, err := r.ReserveHosts(names[:gang])
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		admit func()
	}{{"PlaceGang", place}, {"ReserveHosts", reserve}} {
		if avg := testing.AllocsPerRun(1000, c.admit); avg > 2 {
			t.Errorf("%s and Commit of a %d-host gang allocate %.0f objects, want at most 2 (the reservation and its hosts)", c.name, gang, avg)
		}
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
