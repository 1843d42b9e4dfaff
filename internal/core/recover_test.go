package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/workload"
)

// TestCrashRecoveryFromCheckpoint exercises the fault-tolerance extension
// end to end: the application checkpoints periodically; its host "crashes";
// Recover restarts it from the last checkpoint on a registry-chosen host;
// results stay correct and progress is not lost back to zero.
func TestCrashRecoveryFromCheckpoint(t *testing.T) {
	store := hpcm.NewMemStore()
	s, _ := newSystem(t, 1000, 3, Options{
		Checkpoints:     store,
		CheckpointEvery: 20 * time.Second,
	})

	cfg := workload.TreeConfig{
		Levels: 10, Rounds: 40, Seed: 11,
		WorkPerNode: 600, BytesPerNode: 8,
	}
	var mu sync.Mutex
	sums := map[int]int64{}
	var maxPreCrash int
	cfg.OnSum = func(round int, sum int64) {
		mu.Lock()
		sums[round] = sum
		mu.Unlock()
	}
	app, err := s.Launch("test_tree", "ws1", cfg.Schema(1e6), workload.TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}

	// Let it make progress and write at least one checkpoint.
	deadline := time.Now().Add(15 * time.Second)
	for app.Proc.Checkpoints() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("checkpoints = %d, never reached 2", app.Proc.Checkpoints())
		}
		s.Clock().Sleep(time.Second)
	}
	mu.Lock()
	maxPreCrash = len(sums)
	mu.Unlock()
	if maxPreCrash == 0 {
		// Ensure some rounds completed before the crash.
		for {
			mu.Lock()
			n := len(sums)
			mu.Unlock()
			if n > 0 {
				break
			}
			s.Clock().Sleep(time.Second)
		}
	}

	// Crash ws1.
	app.Proc.Kill()
	if err := app.Wait(); !errors.Is(err, hpcm.ErrKilled) {
		t.Fatalf("Wait = %v, want ErrKilled", err)
	}

	// Recover via the registry's first-fit (ws1 excluded as the last host).
	app2, err := s.Recover("test_tree", "", cfg.Schema(1e6), workload.TestTree(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if app2.Host() == "ws1" {
		t.Fatalf("recovered onto the crashed host")
	}
	if err := app2.Wait(); err != nil {
		t.Fatal(err)
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

func TestRecoverWithoutStore(t *testing.T) {
	s, _ := newSystem(t, 1000, 1, Options{})
	if _, err := s.Recover("x", "", nil, func(*hpcm.Context) error { return nil }); err == nil {
		t.Fatal("Recover without store accepted")
	}
}

func TestRecoverWithoutCheckpoint(t *testing.T) {
	s, _ := newSystem(t, 1000, 2, Options{Checkpoints: hpcm.NewMemStore()})
	if _, err := s.Recover("ghost", "ws2", nil, func(*hpcm.Context) error { return nil }); err == nil {
		t.Fatal("Recover of unknown app accepted")
	}
}
