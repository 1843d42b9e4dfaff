package experiments

import (
	"time"

	"autoresched/internal/core"
	"autoresched/internal/workload"
)

// FalseMigrationConfig tunes the warm-up ablation: Section 5.2 explains the
// rescheduler waits out short load transients ("If the additional load is a
// short task, this period of time can avoid the fault migration caused by
// small system performance variations") and that the damping is "a
// configurable parameter of the rescheduler".
type FalseMigrationConfig struct {
	Params
	// Warmup is the scheduler damping under test.
	Warmup int
}

// FalseMigrationResult reports whether the transient fooled the scheduler.
type FalseMigrationResult struct {
	Migrations int
	FalseMove  bool
}

// RunFalseMigration subjects a host running a long application to a short
// load burst and reports whether the configured warm-up kept the scheduler
// from migrating for nothing.
func RunFalseMigration(cfg FalseMigrationConfig) (*FalseMigrationResult, error) {
	cfg.Params = cfg.Params.withDefaults()
	if cfg.Warmup <= 0 {
		cfg.Warmup = 1
	}
	cl, names, err := newCluster(cfg.Params, 2)
	if err != nil {
		return nil, err
	}
	clock := cl.Clock()
	sys, err := core.New(core.Options{
		Cluster:         cl,
		MonitorInterval: cfg.Interval,
		Warmup:          cfg.Warmup,
		Cooldown:        10 * time.Minute,
		RegistryHost:    names[0],
		ChunkBytes:      8 << 20,
	})
	if err != nil {
		return nil, err
	}
	if err := sys.AddNodes(names...); err != nil {
		return nil, err
	}
	defer sys.Stop()

	tree := workload.TreeConfig{
		Levels: 12, Rounds: 150, Seed: cfg.Seed + 21,
		WorkPerNode: 120, BytesPerNode: 8,
	}
	app, err := sys.Launch("test_tree", "ws1", tree.Schema(hostSpeed), workload.TestTree(tree))
	if err != nil {
		return nil, err
	}

	// Let the app settle, then hit the host with a burst of heavy load
	// that ends on its own — the "short task": 45 s, long enough to push
	// the load average over the threshold, far shorter than a real
	// long-running intruder.
	clock.Sleep(time.Minute)
	ws1, _ := cl.Host("ws1")
	burst := workload.NewLoadGen(ws1, workload.LoadOptions{
		Workers: 4, Duty: 1.0, Period: 2 * time.Second, Seed: cfg.Seed,
	})
	burst.Start()
	clock.Sleep(45 * time.Second)
	burst.Stop()

	// Watch whether the scheduler (wrongly) fires after the burst is gone.
	clock.Sleep(4 * time.Minute)
	res := &FalseMigrationResult{
		Migrations: app.Proc.Migrations(),
		FalseMove:  app.Proc.Migrations() > 0,
	}
	// Let the application run out so the system tears down cleanly.
	app.Proc.Kill()
	_ = app.Wait()
	return res, nil
}
