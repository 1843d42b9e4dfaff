package experiments

import (
	"fmt"
	"strings"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/rules"
	"autoresched/internal/workload"
)

// PolicyRow is one row of the Table 2 reproduction.
type PolicyRow struct {
	Policy       string
	TotalSec     float64 // total execution time of the application
	StartAt      string  // launch host (always ws1)
	MigrateTo    string  // destination host ("-" without migration)
	SourceSec    float64 // time spent executing on the source
	DestSec      float64 // time spent executing on the destination
	MigrationSec float64 // command to restoration complete
	// TransferSec is the state-transfer component (resume to restoration
	// complete): the part of the migration time that depends on the
	// destination's network contention, which is what separates the
	// paper's 8.31 s (to the communicating host) from 6.71 s (to the free
	// one).
	TransferSec float64
}

// policiesWarmup damps the scheduler.
const policiesWarmup = 4

// RunPolicies reproduces Table 2. Five workstations: ws1 runs the
// application and is then overloaded; ws2 exchanges ~7 MB/s with ws5
// (paying protocol-processing CPU, so it is a poor compute host even at
// load < 1); ws3 carries a CPU load of ~2.5; ws4 is free. The same
// application runs once under each policy.
func RunPolicies(cfg Params) ([]PolicyRow, error) {
	policies := []*rules.MigrationPolicy{rules.Policy1(), rules.Policy2(), rules.Policy3()}
	rows := make([]PolicyRow, 0, len(policies))
	for _, pol := range policies {
		row, err := runPolicyArm(cfg, pol)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", pol.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runPolicyArm(cfg Params, pol *rules.MigrationPolicy) (PolicyRow, error) {
	cl, names, err := newCluster(5)
	if err != nil {
		return PolicyRow{}, err
	}
	defer cl.Close()
	clock := cl.Clock()

	sys, err := core.New(core.Options{
		Cluster:      cl,
		Policy:       pol,
		GatherCost:   0.05 * hostSpeed,
		Warmup:       policiesWarmup,
		Cooldown:     10 * time.Minute,
		RegistryHost: names[0],
		ChunkBytes:   32 << 20,
	})
	if err != nil {
		return PolicyRow{}, err
	}
	if err := sys.AddNodes(names...); err != nil {
		return PolicyRow{}, err
	}
	defer sys.Stop()

	// ws2 <-> ws5 communication. The flow is nearly continuous so a state
	// transfer into ws2 genuinely shares its receive path, and ws2 pays
	// protocol-processing CPU (duty ~0.55, keeping its load just under
	// policy 2's threshold of 1 — the paper's ws2 sat at 0.97).
	// Demand above link capacity with large chunks: the flow occupies
	// ws2's NIC nearly continuously, so a state transfer into ws2 reliably
	// runs at the fair share rather than slipping between chunks.
	comm := workload.NewCommLoad(clock, cl.Net(), "ws2", "ws5", workload.CommOptions{
		Rate: 22e6, Chunk: 48 << 20, Bidirectional: true,
	})
	comm.Start()
	defer comm.Stop()
	ws2, _ := cl.Host("ws2")
	rx2 := workload.NewLoadGen(ws2, workload.LoadOptions{
		Workers: 1, Duty: 0.55, Period: 3 * time.Second, Seed: cfg.Seed + 8, Name: "proto-rx",
	})
	rx2.Start()
	defer rx2.Stop()
	ws5, _ := cl.Host("ws5")
	rx5 := workload.NewLoadGen(ws5, workload.LoadOptions{
		Workers: 1, Duty: 0.35, Period: 3 * time.Second, Seed: cfg.Seed + 9, Name: "proto-rx",
	})
	rx5.Start()
	defer rx5.Stop()

	// ws3 carries a CPU workload of ~2.5.
	ws3, _ := cl.Host("ws3")
	busy3 := workload.NewLoadGen(ws3, workload.LoadOptions{
		Workers: 3, Duty: 0.85, Period: 6 * time.Second, Seed: cfg.Seed + 3,
	})
	busy3.Start()
	defer busy3.Stop()

	// Let the background settle so the scheduler sees the real picture.
	clock.Sleep(2 * time.Minute)

	// Dense poll-points (the longest phase is ~0.6 s solo, ~2.5 s under the
	// overload) keep the command-to-poll-point wait small relative to the
	// transfer times; 160 MB of migrated state makes the transfer-time
	// difference between a free and a communication-busy destination (full
	// versus shared receive path) larger than poll-point timing noise.
	tree := workload.TreeConfig{
		Levels: 13, Rounds: 420, Seed: cfg.Seed + 1,
		WorkPerNode: 6, BytesPerNode: 8, BallastBytes: 160 << 20,
	}
	app, err := sys.Launch("test_tree", "ws1", tree.Schema(hostSpeed), workload.TestTree(tree))
	if err != nil {
		return PolicyRow{}, err
	}
	launchAt := clock.Now()

	// The additional tasks that overload ws1.
	clock.Sleep(30 * time.Second)
	ws1, _ := cl.Host("ws1")
	extra := workload.NewLoadGen(ws1, workload.LoadOptions{
		Workers: 3, Duty: 1.0, Period: 4 * time.Second, Seed: cfg.Seed + 5,
	})
	extra.Start()
	defer extra.Stop()

	if err := app.Wait(); err != nil {
		return PolicyRow{}, err
	}
	doneAt := clock.Now()

	row := PolicyRow{
		Policy:    pol.Name,
		StartAt:   "ws1",
		MigrateTo: "-",
		TotalSec:  doneAt.Sub(launchAt).Seconds(),
	}
	if recs := app.Proc.Records(); len(recs) > 0 {
		r := recs[0]
		row.MigrateTo = r.To
		row.SourceSec = r.PollPointAt.Sub(launchAt).Seconds()
		row.DestSec = doneAt.Sub(r.ResumeAt).Seconds()
		row.MigrationSec = r.MigrationTime().Seconds()
		row.TransferSec = r.RestoreDone.Sub(r.ResumeAt).Seconds()
	} else {
		row.SourceSec = row.TotalSec
	}
	return row, nil
}

// RenderPolicies prints the Table 2 reproduction.
func RenderPolicies(rows []PolicyRow) string {
	var b strings.Builder
	b.WriteString("Table 2 — comparison of policies\n")
	b.WriteString("policy   total(s)  start  migrate-to  source(s)  dest(s)  migration(s)  transfer(s)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8.2f  %-5s  %-10s %9.2f %8.2f %13.2f %12.2f\n",
			r.Policy, r.TotalSec, r.StartAt, r.MigrateTo, r.SourceSec, r.DestSec,
			r.MigrationSec, r.TransferSec)
	}
	return b.String()
}
