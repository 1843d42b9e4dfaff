package core

import (
	"sync"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/metrics"
	"autoresched/internal/registry"
	"autoresched/internal/workload"
)

// TestFailoverAfterHostCrash exercises the automatic recovery loop: the
// application checkpoints periodically, its host crashes, and the runtime —
// without any caller involvement — restores the last checkpoint onto a
// fresh first-fit host and runs the computation to a correct completion.
func TestFailoverAfterHostCrash(t *testing.T) {
	store := hpcm.NewMemStore()
	mreg := metrics.NewRegistry()
	s, _ := newSystem(t, 1000, 3, Options{
		Checkpoints:     store,
		CheckpointEvery: 20 * time.Second,
		FailoverRetries: 2,
		Metrics:         mreg,
	})

	cfg := workload.TreeConfig{
		Levels: 10, Rounds: 40, Seed: 11,
		WorkPerNode: 600, BytesPerNode: 8,
	}
	var mu sync.Mutex
	sums := map[int]int64{}
	cfg.OnSum = func(round int, sum int64) {
		mu.Lock()
		sums[round] = sum
		mu.Unlock()
	}
	app, err := s.Launch("test_tree", "ws1", cfg.Schema(1e6), workload.TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}

	// Let it write at least one checkpoint, then crash its host.
	deadline := time.Now().Add(15 * time.Second)
	for app.Process().Checkpoints() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("never checkpointed")
		}
		s.Clock().Sleep(time.Second)
	}
	if err := s.CrashHost("ws1"); err != nil {
		t.Fatal(err)
	}

	if err := app.Wait(); err != nil {
		t.Fatalf("Wait after failover = %v", err)
	}
	if app.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", app.Retries())
	}
	if got := app.Host(); got == "ws1" {
		t.Fatal("app finished on the crashed host")
	}
	if mreg.Counter(CtrCkptRestores).Value() != 1 {
		t.Fatalf("checkpoint restores = %d, want 1", mreg.Counter(CtrCkptRestores).Value())
	}

	want := workload.ExpectedSums(cfg)
	mu.Lock()
	defer mu.Unlock()
	if len(sums) != cfg.Rounds {
		t.Fatalf("rounds completed = %d/%d", len(sums), cfg.Rounds)
	}
	for round, sum := range want {
		if sums[round] != sum {
			t.Fatalf("round %d sum = %d, want %d", round, sums[round], sum)
		}
	}
}

// TestRegistryRestartResyncsSoftState: after the registry drops its soft
// state, heartbeats re-register the hosts and the runtime resyncs its live
// process registrations.
func TestRegistryRestartResyncsSoftState(t *testing.T) {
	mreg := metrics.NewRegistry()
	s, _ := newSystem(t, 1000, 2, Options{
		Metrics: mreg,
	})
	cfg := workload.TreeConfig{
		Levels: 10, Rounds: 200, Seed: 3,
		WorkPerNode: 2000, BytesPerNode: 8,
	}
	app, err := s.Launch("test_tree", "ws1", cfg.Schema(1e6), workload.TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Registry().Processes("ws1")); got != 1 {
		t.Fatalf("processes before restart = %d", got)
	}

	s.RestartRegistry()

	// Hosts come back with the next heartbeats; the process registration is
	// resynced by the runtime.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if len(s.Registry().Processes("ws1")) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("process never re-registered; hosts=%d procs=%d",
				len(s.Registry().Hosts()), len(s.Registry().Processes("ws1")))
		}
		s.Clock().Sleep(time.Second)
	}
	if mreg.Counter(registry.CtrRestarts).Value() != 1 {
		t.Fatalf("restart counter = %d", mreg.Counter(registry.CtrRestarts).Value())
	}
	if mreg.Counter(CtrProcResyncs).Value() < 1 {
		t.Fatalf("resync counter = %d", mreg.Counter(CtrProcResyncs).Value())
	}
	app.Process().Kill()
	_ = app.Wait()
}
