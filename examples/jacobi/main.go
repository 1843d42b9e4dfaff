// Jacobi: a long-running iterative solver (2-D Jacobi relaxation, the
// classic MPI kernel) under the autonomic runtime, with both safety nets
// on: it checkpoints its grid periodically AND migrates away when its
// workstation becomes overloaded. The final residual is verified against a
// pure reference run — migration and restoration are bit-exact.
//
//	go run ./examples/jacobi
package main

import (
	"fmt"
	"log"
	"math"
	"sync"
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
	hosts, err := cl.AddHosts("ws", 2, sim.Config{Speed: 1e6})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(core.Options{
		Cluster:         cl,
		Warmup:          3,
		Checkpoints:     hpcm.NewMemStore(),
		CheckpointEvery: time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.AddNodes(hosts...); err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	cfg := workload.JacobiConfig{
		N: 96, Iters: 400, PollEvery: 4, WorkPerCell: 80,
	}
	var mu sync.Mutex
	var lastIter int
	var lastRes float64
	cfg.OnResidual = func(iter int, res float64) {
		mu.Lock()
		lastIter, lastRes = iter, res
		mu.Unlock()
	}
	app, err := sys.Launch("jacobi", "ws1", cfg.Schema(1e6), workload.Jacobi(cfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jacobi: %dx%d grid, %d sweeps (~%.0f virtual seconds solo)\n",
		cfg.N, cfg.N, cfg.Iters, cfg.TotalWork()/1e6)

	ws1, _ := cl.Host("ws1")
	busy := workload.NewLoadGen(ws1, workload.LoadOptions{Workers: 3, Duty: 1.0, Period: 4 * time.Second})
	busy.Start()
	defer busy.Stop()
	fmt.Println("overloading ws1; the solver should move mid-run ...")

	if err := app.Wait(); err != nil {
		log.Fatal(err)
	}
	wantRes, _ := workload.JacobiReference(cfg)
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("finished on %s after %d migration(s) and %d checkpoint(s)\n",
		app.Host(), app.Proc.Migrations(), app.Proc.Checkpoints())
	fmt.Printf("final residual %.3e at iteration %d (reference %.3e)\n", lastRes, lastIter, wantRes)
	if math.Abs(lastRes-wantRes) > 1e-12 {
		log.Fatal("residual mismatch: migration corrupted the grid")
	}
	fmt.Println("residual matches the uninterrupted reference run exactly")
}
