// Quickstart: the smallest complete use of the rescheduling runtime.
//
// It builds a two-workstation simulated cluster, deploys the autonomic
// runtime (monitors, commanders, registry/scheduler), launches a
// migration-enabled application on ws1, overloads ws1, and watches the
// system move the application to ws2 — all in compressed virtual time.
//
//	go run ./examples/quickstart
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
	// Discrete-event virtual time: the clock jumps from event to event.
	clock := vclock.NewAuto(vclock.Epoch)

	// A cluster of two identical workstations on 100 Mbps Ethernet.
	cl := core.NewCluster(clock, 12.5e6)
	hosts, err := cl.AddHosts("ws", 2, sim.Config{Speed: 1e6})
	if err != nil {
		log.Fatal(err)
	}

	// The autonomic runtime: a monitor and commander per host, the
	// registry/scheduler deciding with the default state-based policy.
	sys, err := core.New(core.Options{
		Cluster: cl,
		Warmup:  3,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.AddNodes(hosts...); err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	// A migration-enabled application: the paper's test_tree benchmark.
	tree := workload.TreeConfig{
		Levels: 12, Rounds: 80, Seed: 42,
		WorkPerNode: 150, BytesPerNode: 8,
	}
	app, err := sys.Launch("test_tree", "ws1", tree.Schema(1e6), workload.TestTree(tree))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("launched %s on %s (estimated %.0fs solo)\n",
		app.Proc.Name(), app.LaunchHost(), tree.TotalWork()/1e6)

	// Overload ws1 with three always-busy tasks; the monitor will notice,
	// the registry will decide, and the commander will order the move.
	ws1, _ := cl.Host("ws1")
	busy := workload.NewLoadGen(ws1, workload.LoadOptions{Workers: 3, Duty: 1.0, Period: 4 * time.Second})
	busy.Start()
	defer busy.Stop()
	fmt.Println("overloading ws1 ...")

	if err := app.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application finished on %s after %d migration(s)\n",
		app.Host(), app.Proc.Migrations())
	for _, rec := range app.Proc.Records() {
		fmt.Printf("  %s -> %s at poll-point %q: migration took %.2fs "+
			"(downtime %.2fs, %d KB state)\n",
			rec.From, rec.To, rec.Label,
			rec.MigrationTime().Seconds(), rec.Downtime().Seconds(),
			(rec.EagerBytes+rec.LazyBytes)/1024)
	}

	// The poll-point/dispatch pattern an application implements directly:
	_ = func(ctx *hpcm.Context) error {
		var progress int
		if err := ctx.Register("progress", &progress); err != nil {
			return err
		}
		for ; progress < 10; progress++ {
			if err := ctx.Compute(1000); err != nil {
				return err
			}
			if err := ctx.PollPoint(fmt.Sprintf("step-%d", progress)); err != nil {
				return err // ErrMigrated propagates; a new incarnation resumes
			}
		}
		return nil
	}
}
