package rules_test

import (
	"fmt"
	"strings"
	"time"

	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
)

// ExampleParseRules parses the paper's Figure 3 processorStatus rule and
// classifies three CPU conditions with it.
func ExampleParseRules() {
	const ruleFile = `
rl_number: 1
rl_name: processorStatus
rl_type: simple
rl_script: processorStatus.sh
rl_desc: This rule determines the processor status i.e. the idle time.
rl_operator: <
rl_busy: 50
rl_overLd: 45
`
	parsed, err := rules.ParseRules(strings.NewReader(ruleFile))
	if err != nil {
		panic(err)
	}
	engine := rules.NewEngine(nil)
	for _, rule := range parsed {
		if err := engine.Add(rule); err != nil {
			panic(err)
		}
	}
	for _, idle := range []float64{80, 47, 30} {
		state, err := engine.State(sysinfo.Snapshot{CPUIdlePct: idle})
		if err != nil {
			panic(err)
		}
		fmt.Printf("idle %.0f%% => %s\n", idle, state)
	}
	// Output:
	// idle 80% => free
	// idle 47% => busy
	// idle 30% => overloaded
}

// ExampleMigrationPolicy evaluates the Table 2 communication-aware policy
// against two candidate destinations.
func ExampleMigrationPolicy() {
	policy := rules.Policy3()
	probes := sysinfo.StandardProbes()

	communicating := sysinfo.Snapshot{Host: "ws2", Load1: 0.97, NetSentBps: 7.2e6}
	free := sysinfo.Snapshot{Host: "ws4", Load1: 0.05}

	for _, snap := range []sysinfo.Snapshot{communicating, free} {
		ok, err := policy.DestinationOK(probes, snap)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s acceptable: %v\n", snap.Host, ok)
	}
	// Output:
	// ws2 acceptable: false
	// ws4 acceptable: true
}

// ExampleSchema shows the estimate arithmetic the registry/scheduler uses
// for process selection, and the statistics feedback that refines it.
func ExampleSchema() {
	s := &rules.Schema{
		Name:            "test_tree",
		Characteristics: []rules.Characteristic{rules.ComputeIntensive},
		Estimate:        rules.Estimate{Seconds: 600, CPUSpeed: 1e6},
	}
	fmt.Println("on the reference host:", s.EstimateOn(1e6))
	fmt.Println("on a host twice as fast:", s.EstimateOn(2e6))

	// The first actual run took longer than estimated; the schema adapts.
	s.RecordRun(800*time.Second, 1e6)
	fmt.Println("after one observed run:", s.EstimateOn(1e6))
	// Output:
	// on the reference host: 10m0s
	// on a host twice as fast: 5m0s
	// after one observed run: 13m20s
}
