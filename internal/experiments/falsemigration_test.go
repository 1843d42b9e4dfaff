package experiments

import (
	"time"

	"autoresched/internal/core"
	"autoresched/internal/workload"
)

// runFalseMigration is the warm-up ablation: Section 5.2 explains the
// rescheduler waits out short load transients ("If the additional load is a
// short task, this period of time can avoid the fault migration caused by
// small system performance variations") and that the damping is "a
// configurable parameter of the rescheduler". It subjects a host running a
// long application to a short load burst under the given warm-up and
// returns how many times the scheduler migrated it for nothing.
func runFalseMigration(p Params, warmup int) (int, error) {
	cl, names, err := newCluster(2)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	clock := cl.Clock()
	sys, err := core.New(core.Options{
		Cluster:      cl,
		Warmup:       warmup,
		Cooldown:     10 * time.Minute,
		RegistryHost: names[0],
		ChunkBytes:   8 << 20,
	})
	if err != nil {
		return 0, err
	}
	if err := sys.AddNodes(names...); err != nil {
		return 0, err
	}
	defer sys.Stop()

	tree := workload.TreeConfig{
		Levels: 12, Rounds: 150, Seed: p.Seed + 21,
		WorkPerNode: 120, BytesPerNode: 8,
	}
	app, err := sys.Launch("test_tree", "ws1", tree.Schema(hostSpeed), workload.TestTree(tree))
	if err != nil {
		return 0, err
	}

	// Let the app settle, then hit the host with a burst of heavy load
	// that ends on its own — the "short task": 45 s, long enough to push
	// the load average over the threshold, far shorter than a real
	// long-running intruder.
	clock.Sleep(time.Minute)
	ws1, _ := cl.Host("ws1")
	burst := workload.NewLoadGen(ws1, workload.LoadOptions{
		Workers: 4, Duty: 1.0, Period: 2 * time.Second, Seed: p.Seed,
	})
	burst.Start()
	clock.Sleep(45 * time.Second)
	burst.Stop()

	// Watch whether the scheduler (wrongly) fires after the burst is gone.
	clock.Sleep(4 * time.Minute)
	migrations := app.Proc.Migrations()
	// Let the application run out so the system tears down cleanly.
	app.Proc.Kill()
	_ = app.Wait()
	return migrations, nil
}
