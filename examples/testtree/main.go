// Testtree: the paper's Section 5.2 efficiency scenario as a runnable
// program — start the migration-enabled test_tree, load the workstation,
// and print the full migration timeline plus the CPU timelines of both
// workstations (Figures 7 and 8 in miniature).
//
//	go run ./examples/testtree
package main

import (
	"fmt"
	"log"
	"time"

	"autoresched/internal/experiments"
	"autoresched/internal/metrics"
)

func main() {
	fmt.Println("running the Section 5.2 efficiency experiment ...")
	res, err := experiments.RunEfficiency(experiments.EfficiencyConfig{
		Params:    experiments.Params{Seed: 1},
		AppStart:  120 * time.Second,
		LoadStart: 200 * time.Second,
		Warmup:    5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())

	fmt.Println("\nsampled series (10s interval):")
	fmt.Print(metrics.Table(res.Recorder.Start(),
		res.Recorder.Series("ws1/cpu"),
		res.Recorder.Series("ws2/cpu"),
		res.Recorder.Series("ws1/sentKBs"),
		res.Recorder.Series("ws2/recvKBs"),
	))
}
