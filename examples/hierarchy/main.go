// Hierarchy: the Section 3.2 hierarchical registry/scheduler arrangement.
//
// Two "control domains" (clusters) each run their own registry/scheduler;
// both register with an upper-level registry (the Virtual Organisation
// level). When a domain has no host fit to receive a migration, its
// registry delegates the first-fit search upward, and the process moves to
// a host in the other domain — the paper's answer to the centralised
// bottleneck.
//
//	go run ./examples/hierarchy
package main

import (
	"fmt"
	"log"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/registry"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

func main() {
	clock := vclock.NewAuto(vclock.Epoch)

	// One shared interconnect carrying both domains (a campus network).
	cl := core.NewCluster(clock, 12.5e6)
	domainA, err := cl.AddHosts("a", 2, sim.Config{Speed: 1e6})
	if err != nil {
		log.Fatal(err)
	}
	domainB, err := cl.AddHosts("b", 2, sim.Config{Speed: 1e6})
	if err != nil {
		log.Fatal(err)
	}

	// The upper-level registry knows domain B's hosts (registered there by
	// B's own runtime below).
	upper := registry.NewRegistry(registry.WithName("vo-registry"), registry.WithClock(clock))

	// Domain B: its monitors report to the upper registry as well, making
	// its free hosts visible to other domains. For the demo we simply run
	// domain B's system with the upper registry as its own (single level),
	// and chain domain A under it.
	sysB, err := core.New(core.Options{Cluster: cl})
	if err != nil {
		log.Fatal(err)
	}
	if err := sysB.AddNodes(domainB...); err != nil {
		log.Fatal(err)
	}
	defer sysB.Stop()
	// Mirror B's host registrations into the upper-level registry.
	vclock.Go(clock, func() {
		for {
			for _, h := range sysB.Registry().Hosts() {
				_ = upper.RegisterHost(h.Name, h.Static)
				_ = upper.ReportStatus(h.Name, h.Status)
			}
			clock.Sleep(10 * time.Second)
		}
	})

	// Domain A: both of its hosts will be busy, so its registry must
	// delegate upward. Its registry chains to the upper one via Parent.
	sysA, err := core.New(core.Options{
		Cluster: cl,
		Warmup:  3,
		Parent:  upper,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sysA.AddNodes(domainA...); err != nil {
		log.Fatal(err)
	}
	defer sysA.Stop()

	// Launch the app in domain A, then overload BOTH of A's hosts.
	tree := workload.TreeConfig{Levels: 12, Rounds: 60, Seed: 9, WorkPerNode: 150, BytesPerNode: 8}
	app, err := sysA.Launch("test_tree", "a1", tree.Schema(1e6), workload.TestTree(tree))
	if err != nil {
		log.Fatal(err)
	}
	for _, host := range domainA {
		h, _ := cl.Host(host)
		gen := workload.NewLoadGen(h, workload.LoadOptions{Workers: 3, Duty: 1.0, Period: 4 * time.Second})
		gen.Start()
		defer gen.Stop()
	}
	fmt.Println("domain A fully overloaded; waiting for the cross-domain migration ...")

	if err := app.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application finished on %s after %d migration(s)\n", app.Host(), app.Proc.Migrations())
	for _, rec := range app.Proc.Records() {
		fmt.Printf("  %s -> %s (cross-domain via the upper-level registry)\n", rec.From, rec.To)
	}
	if app.Host()[0] != 'b' {
		log.Fatalf("expected the app to land in domain B, got %s", app.Host())
	}
}
