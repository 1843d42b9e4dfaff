package core

import (
	"sync"
	"testing"
	"time"

	"autoresched/internal/workload"
)

// TestSixtyFourNodeCluster deploys the runtime at the paper's testbed size:
// 64 monitored workstations, several migration-enabled applications, a
// handful of overloaded hosts. Every application must finish correctly and
// every app on an overloaded host must have been moved off it.
func TestSixtyFourNodeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node run in -short mode")
	}
	s, cl := newSystem(t, 400, 64, Options{
		Warmup:   2,
		Cooldown: 3 * time.Minute,
	})

	// Four applications on the first four hosts.
	type run struct {
		app  *App
		cfg  workload.TreeConfig
		sums map[int]int64
		mu   sync.Mutex
	}
	var runs []*run
	for i := 0; i < 4; i++ {
		r := &run{sums: map[int]int64{}}
		r.cfg = workload.TreeConfig{
			Levels: 9, Rounds: 40, Seed: int64(100 + i),
			WorkPerNode: 800, BytesPerNode: 8,
		}
		r.cfg.OnSum = func(round int, sum int64) {
			r.mu.Lock()
			r.sums[round] = sum
			r.mu.Unlock()
		}
		host := cl.Hosts()[i]
		// Process names are unique in the middleware directory.
		name := "test_tree-" + host
		app, err := s.Launch(name, host, r.cfg.Schema(1e6), workload.TestTree(r.cfg))
		if err != nil {
			t.Fatal(err)
		}
		r.app = app
		runs = append(runs, r)
	}

	// Overload the first two hosts; their apps must migrate away.
	var gens []*workload.LoadGen
	for i := 0; i < 2; i++ {
		h, _ := cl.Host(cl.Hosts()[i])
		g := workload.NewLoadGen(h, workload.LoadOptions{Workers: 3, Duty: 1.0, Period: 4 * time.Second, Seed: int64(i)})
		g.Start()
		gens = append(gens, g)
	}
	defer func() {
		for _, g := range gens {
			g.Stop()
		}
	}()

	for i, r := range runs {
		if err := r.app.Wait(); err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		want := workload.ExpectedSums(r.cfg)
		r.mu.Lock()
		for round, sum := range want {
			if r.sums[round] != sum {
				t.Fatalf("app %d round %d sum mismatch", i, round)
			}
		}
		r.mu.Unlock()
	}
	for i := 0; i < 2; i++ {
		if runs[i].app.Host() == cl.Hosts()[i] {
			t.Fatalf("app %d finished on its overloaded origin %s", i, cl.Hosts()[i])
		}
		if runs[i].app.Proc.Migrations() < 1 {
			t.Fatalf("app %d never migrated", i)
		}
	}
	// The registry tracked the full cluster.
	if got := len(s.Registry().Hosts()); got != 64 {
		t.Fatalf("registry hosts = %d", got)
	}
	health := s.Registry().Health()
	if health.Hosts != 64 || health.Free < 32 {
		t.Fatalf("health = %+v", health)
	}
}
