// Faulttolerance: the rescheduling-for-fault-tolerance scenario of
// Section 6 ("reschedule when the machine will shut down"). The
// application checkpoints its state periodically; its workstation crashes
// without warning (no chance to migrate); failover restores it from the
// last checkpoint on a host chosen by the registry's first-fit — losing at
// most one checkpoint interval of work instead of the whole run.
//
//	go run ./examples/faulttolerance
package main

import (
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
		FailoverRetries: 1,
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
	fmt.Printf("crash! losing ws1 after %d checkpoints\n", app.Proc.Checkpoints())
	if err := sys.CrashHost("ws1"); err != nil {
		log.Fatal(err)
	}
	if err := app.Wait(); err != nil {
		log.Fatal(err)
	}
	if app.Retries() != 1 || app.Host() == "ws1" {
		log.Fatalf("no failover: %d retries, on %s", app.Retries(), app.Host())
	}
	fmt.Printf("recovered from checkpoint onto %s (chosen by first-fit)\n", app.Host())
	fmt.Printf("run completed on %s; results identical to an uninterrupted run\n", app.Host())
}
