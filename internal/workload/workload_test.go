package workload

import (
	"sync"
	"testing"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/hpcm"
	"autoresched/internal/mpi"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

func testRig(t *testing.T) (*core.Cluster, *hpcm.Middleware) {
	t.Helper()
	return rigWith(t, hpcm.Options{})
}

// rigWith is testRig with opts for the middleware; the rig fills in its
// universe and hosts.
func rigWith(t *testing.T, opts hpcm.Options) (*core.Cluster, *hpcm.Middleware) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	cl := core.NewCluster(clock, 12.5e6)
	if _, err := cl.AddHosts("ws", 3, sim.Config{Speed: 1e6}); err != nil {
		t.Fatal(err)
	}
	u := mpi.NewUniverse(mpi.Options{
		Clock:        clock,
		Transport:    mpi.SimTransport{Net: cl.Net()},
		SpawnLatency: 300 * time.Millisecond,
	})
	opts.Universe, opts.Hosts = u, cl
	mw, err := hpcm.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cl, mw
}

func smallTree() TreeConfig {
	return TreeConfig{Levels: 8, Rounds: 3, Seed: 42, WorkPerNode: 10, BytesPerNode: 8}
}

func TestTreeConfigArithmetic(t *testing.T) {
	cfg := smallTree()
	if cfg.Nodes() != 255 {
		t.Fatalf("Nodes = %d", cfg.Nodes())
	}
	if (TreeConfig{}).Nodes() != 0 {
		t.Fatal("zero config has nodes")
	}
	// 3 rounds x (3 phases + 8 sort passes) x 255 nodes x 10 units.
	want := 3.0 * (3 + 8) * 255 * 10
	if got := cfg.TotalWork(); got != want {
		t.Fatalf("TotalWork = %v, want %v", got, want)
	}
	s := cfg.Schema(1000)
	if s.Name != "test_tree" || s.Estimate.Seconds != want/1000 {
		t.Fatalf("schema = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTestTreeComputesCorrectSums(t *testing.T) {
	_, mw := testRig(t)
	cfg := smallTree()
	var mu sync.Mutex
	got := map[int]int64{}
	cfg.OnSum = func(round int, sum int64) {
		mu.Lock()
		got[round] = sum
		mu.Unlock()
	}
	p, err := mw.Start("test_tree", "ws1", TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	want := ExpectedSums(cfg)
	mu.Lock()
	defer mu.Unlock()
	for round, sum := range want {
		if got[round] != sum {
			t.Fatalf("round %d sum = %d, want %d", round, got[round], sum)
		}
	}
}

func TestTestTreeSurvivesMigrationMidRun(t *testing.T) {
	cl, mw := testRig(t)
	cfg := smallTree()
	cfg.Rounds = 4
	var mu sync.Mutex
	got := map[int]int64{}
	cfg.OnSum = func(round int, sum int64) {
		mu.Lock()
		got[round] = sum
		mu.Unlock()
	}
	p, err := mw.Start("test_tree", "ws1", TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Order the migration while round 0 sorts (5.1 to 25.5 ms: 2.55 ms a
	// phase, eight for the sort), so the run moves to ws2 with the tree
	// holding its values and ws2 sums what arrived, in the order it
	// arrived.
	cl.Clock().Sleep(10 * time.Millisecond)
	p.Signal(hpcm.Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 || p.Host() != "ws2" {
		t.Fatalf("migrations=%d host=%s", p.Migrations(), p.Host())
	}
	if label := p.Records()[0].Label; label != "round-0/sort" {
		t.Fatalf("migrated at %s, want round-0/sort: the tree holds values from assign to sum", label)
	}
	want := ExpectedSums(cfg)
	mu.Lock()
	defer mu.Unlock()
	for round, sum := range want {
		if got[round] != sum {
			t.Fatalf("round %d sum = %d, want %d (state corrupted by migration?)", round, got[round], sum)
		}
	}
	if len(got) != cfg.Rounds {
		t.Fatalf("rounds completed = %d", len(got))
	}
}

func TestTestTreeRejectsBadConfig(t *testing.T) {
	_, mw := testRig(t)
	p, err := mw.Start("bad", "ws1", TestTree(TreeConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestLoadGenRaisesLoadAverage(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	defer clock.Close()
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	gen := NewLoadGen(host, LoadOptions{Workers: 2, Duty: 1.0, Period: 2 * time.Second})
	gen.Start()
	defer gen.Stop()
	// Fully busy workers: after 10 virtual minutes the run queue is 2 and
	// the load approaches 2.
	clock.Sleep(10 * time.Minute)
	if q := host.RunQueue(); q != 2 {
		t.Fatalf("run queue = %d, want 2", q)
	}
	l1, _, _ := host.LoadAvg()
	if l1 < 1.8 {
		t.Fatalf("load1 = %v, want ~2 with 2 duty-1.0 workers", l1)
	}
	if host.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d", host.NumProcs())
	}
	gen.Stop()
	if host.NumProcs() != 0 {
		t.Fatalf("NumProcs after stop = %d", host.NumProcs())
	}
}

func TestLoadGenDutyApproximation(t *testing.T) {
	// Modest scale and a long period: goroutine wake-up latency (real
	// milliseconds) shows up as virtual idle time proportional to the
	// scale, so keep it a small fraction of the cycle.
	clock := vclock.NewAuto(vclock.Epoch)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	gen := NewLoadGen(host, LoadOptions{Workers: 1, Duty: 0.25, Period: 8 * time.Second, Seed: 7})
	gen.Start()
	clock.Sleep(3 * time.Minute)
	gen.Stop()
	busy, idle := host.CPUTimes()
	frac := busy.Seconds() / (busy + idle).Seconds()
	if frac < 0.12 || frac > 0.42 {
		t.Fatalf("busy fraction = %v, want ~0.25", frac)
	}
}

func TestLoadGenStartStopIdempotent(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	gen := NewLoadGen(host, LoadOptions{})
	gen.Start()
	gen.Start() // no-op
	gen.Stop()
	gen.Stop() // no-op
}

func TestCommLoadAchievesRoughRate(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	cl := core.NewCluster(clock, 12.5e6)
	if _, err := cl.AddHosts("ws", 2, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	load := NewCommLoad(clock, cl.Net(), "ws1", "ws2",
		CommOptions{Rate: 7e6, Chunk: 4 << 20, Bidirectional: true})
	start := clock.Now()
	load.Start()
	load.Start() // no-op
	clock.Sleep(60 * time.Second)
	load.Stop()
	elapsed := clock.Since(start).Seconds()
	sent, recv, err := cl.Net().Counters("ws1")
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(sent) / elapsed
	// Target 7 MB/s within generous tolerance (chunked pacing, wake-up
	// latency inflated by the clock scale).
	if rate < 3.5e6 || rate > 10e6 {
		t.Fatalf("achieved send rate = %v B/s, want ~7e6", rate)
	}
	if recv < int64(10e6) {
		t.Fatalf("bidirectional recv = %d bytes", recv)
	}
}
