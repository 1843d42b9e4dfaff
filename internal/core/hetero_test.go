package core

import (
	"sync"
	"testing"
	"time"

	"autoresched/internal/sim"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

// TestHeterogeneousClusterPrefersCapableHost: the paper's setting is a
// heterogeneous network. With a slow and a fast spare host, the schema's
// minimum-CPU requirement steers the first-fit away from the too-slow host
// even though it registered first, and the app finishes faster than it
// would have at home.
func TestHeterogeneousClusterPrefersCapableHost(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	cl := NewCluster(clock, 12.5e6)
	t.Cleanup(cl.Close)
	// ws1: source (mid speed); ws2: slow spare; ws3: fast spare.
	if _, err := cl.AddHost("ws1", sim.Config{Speed: 1e6}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddHost("ws2", sim.Config{Speed: 2e5}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddHost("ws3", sim.Config{Speed: 2e6}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Cluster:  cl,
		Warmup:   2,
		Cooldown: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddNodes("ws1", "ws2", "ws3"); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	cfg := workload.TreeConfig{
		Levels: 10, Rounds: 60, Seed: 17,
		WorkPerNode: 600, BytesPerNode: 8,
	}
	sch := cfg.Schema(1e6)
	// Require at least the source's computing power: ws2 (5x slower) must
	// not be chosen.
	sch.Requirements.MinCPUSpeed = 1e6
	var mu sync.Mutex
	sums := map[int]int64{}
	cfg.OnSum = func(round int, sum int64) {
		mu.Lock()
		sums[round] = sum
		mu.Unlock()
	}
	app, err := s.Launch("test_tree", "ws1", sch, workload.TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ws1, _ := cl.Host("ws1")
	gen := workload.NewLoadGen(ws1, workload.LoadOptions{Workers: 3, Duty: 1.0, Period: 4 * time.Second})
	gen.Start()
	defer gen.Stop()

	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if app.Host() != "ws3" {
		t.Fatalf("app finished on %s, want the fast ws3 (ws2 fails the CPU requirement)", app.Host())
	}
	want := workload.ExpectedSums(cfg)
	mu.Lock()
	defer mu.Unlock()
	for round, sum := range want {
		if sums[round] != sum {
			t.Fatalf("round %d mismatch", round)
		}
	}
}
