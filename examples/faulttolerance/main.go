// Faulttolerance: the rescheduling-for-fault-tolerance scenario of
// Section 6 ("reschedule when the machine will shut down"). The
// application checkpoints its state periodically; its workstation crashes
// without warning (no chance to migrate); the runtime recovers it from the
// last checkpoint on a host chosen by the registry's first-fit — losing at
// most one checkpoint interval of work instead of the whole run.
//
//	go run ./examples/faulttolerance
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/hpcm"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

func main() {
	clock := vclock.NewAuto(vclock.Epoch)
	cl := core.NewCluster(clock, 12.5e6)
	hosts, err := cl.AddHosts("ws", 3, sim.Config{Speed: 1e6})
	if err != nil {
		log.Fatal(err)
	}

	store := hpcm.NewMemStore()
	sys, err := core.New(core.Options{
		Cluster:         cl,
		Checkpoints:     store,
		CheckpointEvery: 30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.AddNodes(hosts...); err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	tree := workload.TreeConfig{Levels: 12, Rounds: 60, Seed: 2026, WorkPerNode: 400, BytesPerNode: 8}
	app, err := sys.Launch("test_tree", "ws1", tree.Schema(1e6), workload.TestTree(tree))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("test_tree running on ws1, checkpointing every 30 virtual seconds ...")

	// Give it time to work and checkpoint, then crash the workstation.
	for app.Proc.Checkpoints() < 3 {
		clock.Sleep(time.Second)
	}
	fmt.Printf("crash! killing ws1 after %d checkpoints\n", app.Proc.Checkpoints())
	app.Proc.Kill()
	if err := app.Wait(); !errors.Is(err, hpcm.ErrKilled) {
		log.Fatalf("unexpected exit: %v", err)
	}

	app2, err := sys.Recover("test_tree", "", tree.Schema(1e6), workload.TestTree(tree))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered from checkpoint onto %s (chosen by first-fit)\n", app2.Host())
	if err := app2.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run completed on %s; results identical to an uninterrupted run\n", app2.Host())
}
