package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"autoresched/internal/workload"
)

// treeRun is one checksummed test_tree application.
type treeRun struct {
	app  *App
	cfg  workload.TreeConfig
	sums map[int]int64
	mu   sync.Mutex
}

// sixtyFourNodes deploys the runtime at the paper's testbed size: 64
// monitored workstations, a test_tree application on each of the first
// four hosts in name order (ws1, ws10, ws11, ws12), and the first two of
// those overloaded, so that their applications migrate away.
func sixtyFourNodes(t *testing.T) (*System, *Cluster, []*treeRun) {
	s, cl := newSystem(t, 400, 64, Options{
		Warmup:   2,
		Cooldown: 3 * time.Minute,
	})
	var runs []*treeRun
	for i := 0; i < 4; i++ {
		r := &treeRun{sums: map[int]int64{}}
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
	for i := 0; i < 2; i++ {
		h, _ := cl.Host(cl.Hosts()[i])
		g := workload.NewLoadGen(h, workload.LoadOptions{Workers: 3, Duty: 1.0, Period: 4 * time.Second, Seed: int64(i)})
		g.Start()
		t.Cleanup(g.Stop)
	}
	return s, cl, runs
}

// TestSixtyFourNodeCluster: every application finishes correctly, and
// every app on an overloaded host has been moved off it.
func TestSixtyFourNodeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node run in -short mode")
	}
	s, cl, runs := sixtyFourNodes(t)
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

// TestLedgerFollowsFirstFit: the registry's first fit moves both
// overloaded applications, test_tree-ws1 and test_tree-ws10, onto ws2, the
// first Free host. The paper's rule lets them share it: the ledger records
// each landed move (Move never refuses), and names ws2's first-admitted
// holder, test_tree-ws1, as its owner.
func TestLedgerFollowsFirstFit(t *testing.T) {
	s, _, runs := sixtyFourNodes(t)
	for sec := 0; runs[0].app.Host() == "ws1" || runs[1].app.Host() == "ws10"; sec++ {
		if sec == 600 {
			t.Fatalf("after %ds the overloaded apps run on %s and %s", sec, runs[0].app.Host(), runs[1].app.Host())
		}
		s.Clock().Sleep(time.Second)
	}
	s.mu.Lock()
	ws1, ws10 := slices.Clone(s.ledger.Placement("test_tree-ws1")), slices.Clone(s.ledger.Placement("test_tree-ws10"))
	owner := s.ledger.Owner("ws2")
	s.mu.Unlock()
	if !slices.Equal(ws1, []string{"ws2"}) || !slices.Equal(ws10, []string{"ws2"}) {
		t.Errorf("ledger places test_tree-ws1 on %v and test_tree-ws10 on %v, want both on [ws2]", ws1, ws10)
	}
	if owner != "test_tree-ws1" {
		t.Errorf("Owner(ws2) = %q, want the first-admitted test_tree-ws1", owner)
	}
	for _, r := range runs {
		if err := r.app.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}
