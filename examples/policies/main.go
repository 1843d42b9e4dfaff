// Policies: the Table 2 comparison as a runnable program. Three runs of
// the same overloaded workstation under the paper's three migration
// policies — no migration, load-only, and load+communication — printing the
// table the paper reports.
//
//	go run ./examples/policies
package main

import (
	"fmt"
	"log"

	"autoresched/internal/experiments"
)

func main() {
	fmt.Println("running the Section 5.3 policy comparison (three full runs) ...")
	rows, err := experiments.RunPolicies(experiments.Params{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderPolicies(rows))

	p1, p3 := rows[0], rows[2]
	if p3.TotalSec > 0 {
		fmt.Printf("\nwith the communication-aware policy the application finished in %.1f%% "+
			"of the no-migration time (the paper reports 33.5%%)\n",
			100*p3.TotalSec/p1.TotalSec)
	}
}
