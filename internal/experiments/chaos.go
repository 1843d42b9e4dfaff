package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"autoresched/internal/commander"
	"autoresched/internal/core"
	"autoresched/internal/faults"
	"autoresched/internal/hpcm"
	"autoresched/internal/livemig"
	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/registry"
	"autoresched/internal/workload"
)

// ChaosConfig tunes the chaos experiment: a fixed set of seeded fault
// scenarios runs the same checksummed tree computation on a four-host
// cluster while the injector crashes hosts, partitions links, restarts the
// registry and redelivers orders. Scale defaults higher than the figure
// experiments because outcomes hinge on counts and protocol phases, not on
// rate fidelity.
type ChaosConfig struct {
	Params
	// Scenarios selects a subset by name; empty runs all.
	Scenarios []string
	// Metrics, when set, accumulates every scenario's metrics registry
	// (histograms merged bucket-wise) for a run-wide snapshot — the
	// cmd/repro -metrics flag feeds from here.
	Metrics *metrics.Registry
	// Live, when set, enables iterative-precopy live migration: the tree
	// workload carries a paged ballast region, every migrate order takes the
	// live path, and a ninth scenario crashes the destination mid-precopy.
	// Nil keeps the classic stop-and-copy runs (and their byte-identical
	// reports).
	Live *livemig.Config
}

// ChaosRow is one scenario's outcome. Schedule, the counters, Survived,
// Completed, Correct, Retries and FinalErr depend only on the seed (fault
// triggers are virtual-time offsets and protocol phases); VirtualSec,
// InflationPct, FinalHost and Checkpoints carry scheduling jitter — the
// failover destination comes from a first-fit search over load
// classifications, and checkpoint cadence follows the (jittery) completion
// time — so they are reported as approximate.
type ChaosRow struct {
	Scenario  string
	Completed bool // settled before the virtual deadline (no hang)
	Correct   bool // every round's checksum matched the expected sum
	Survived  bool // Completed && Correct && no terminal error
	FinalErr  string
	Retries   int
	Schedule  []string // applied fault events + fired phase traps
	Counters  map[string]int64
	// Spans holds the per-phase migration-latency summaries (span/*
	// histograms). The counts are phase-driven and deterministic per seed;
	// the quantile strings carry scheduling jitter (wall wake-up latency ×
	// Scale) and are reported in the approximate section.
	Spans []metrics.SpanStat

	VirtualSec   float64 // approximate
	InflationPct float64 // vs the baseline scenario; approximate
	FinalHost    string  // approximate (load-dependent first fit)
	Checkpoints  int     // approximate (interval-driven)
}

// chaosCounterNames is the deterministic counter subset each row reports:
// every one is driven by a count-based or phase-based trigger, never by a
// wall-time race.
var chaosCounterNames = []string{
	faults.CtrStatusDropped,
	faults.CtrStatusDuplicated,
	faults.CtrStatusDelayed,
	monitor.CtrReregisters,
	commander.CtrOrdersDeduped,
	registry.CtrRestarts,
	registry.CtrRecoveries,
	registry.CtrStandbyPromotions,
	core.CtrProcResyncs,
	core.CtrMigrAborted,
	core.CtrMigrCommitted,
	core.CtrCkptRestores,
	core.CtrColdRestarts,
	malleable.CtrResizeCommitted,
	malleable.CtrResizeAborted,
	malleable.CtrRanksSpawned,
	malleable.CtrRanksRetired,
	core.CtrJobsAdmitted,
	core.CtrJobsRequeued,
	core.CtrJobsReservations,
}

// counterValues reads the named counters out of a scenario's registry.
func counterValues(reg *metrics.Registry, names []string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, name := range names {
		out[name] = reg.Counter(name).Value()
	}
	return out
}

const chaosApp = "test_tree"

type chaosScenario struct {
	name string
	plan faults.Plan
}

// chaosScenarios is the fixed scenario set. Offsets are virtual seconds
// after launch; the workload runs several hundred virtual seconds, so every
// fault lands mid-computation. live appends the precopy-specific scenario,
// which only makes sense when the live path is enabled.
func chaosScenarios(live bool) []chaosScenario {
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }
	scenarios := []chaosScenario{
		{"baseline", faults.Plan{Name: "baseline"}},
		{"heartbeat-faults", faults.Plan{Name: "heartbeat-faults", Events: []faults.Event{
			{After: at(40), Kind: faults.KindDropStatus, Host: "ws2", Count: 2},
			{After: at(45), Kind: faults.KindDupStatus, Host: "ws3", Count: 2},
			{After: at(50), Kind: faults.KindDelayStatus, Host: "ws2", Count: 1, Delay: 2 * time.Second},
		}}},
		{"degraded-migration", faults.Plan{Name: "degraded-migration", Events: []faults.Event{
			{After: at(40), Kind: faults.KindLinkFactor, Host: "ws1", Peer: "ws2", Factor: 0.25},
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
			{After: at(150), Kind: faults.KindLinkFactor, Host: "ws1", Peer: "ws2", Factor: 1},
		}}},
		{"partition-abort", faults.Plan{Name: "partition-abort", Events: []faults.Event{
			{After: at(40), Kind: faults.KindPartition, Host: "ws1", Peer: "ws2"},
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
			{After: at(150), Kind: faults.KindHeal, Host: "ws1", Peer: "ws2"},
		}}},
		{"crash-dest-mid-migration", faults.Plan{Name: "crash-dest-mid-migration", Events: []faults.Event{
			{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhaseInit, Target: "dest"},
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
		}}},
		{"crash-source-post-commit", faults.Plan{Name: "crash-source-post-commit", Events: []faults.Event{
			{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhaseResume, Target: "source"},
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
		}}},
		{"registry-restart", faults.Plan{Name: "registry-restart", Events: []faults.Event{
			{After: at(60), Kind: faults.KindRestartRegistry},
		}}},
		{"duplicate-order", faults.Plan{Name: "duplicate-order", Events: []faults.Event{
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2", Count: 3},
		}}},
	}
	if live {
		// The destination dies after the first precopy round: the freeze (or
		// next round) hits a dead host, the attempt aborts pre-commit, and
		// the runtime falls back to checkpoint recovery.
		scenarios = append(scenarios, chaosScenario{
			"crash-dest-mid-precopy", faults.Plan{Name: "crash-dest-mid-precopy", Events: []faults.Event{
				{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhasePrecopy, Round: 1, Target: "dest"},
				{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
			}},
		})
	}
	// The resize-* scenarios run the malleability engine's crash windows
	// against a dedicated elastic job (runMalleableChaosScenario). One kills
	// a freshly spawned rank mid-expand, which must abort the resize cleanly
	// back to the old world; the other kills a victim host mid-shrink after
	// the drain, which must not stop the shrink from committing.
	scenarios = append(scenarios,
		chaosScenario{"resize-crash-new-rank", faults.Plan{Name: "resize-crash-new-rank", Events: []faults.Event{
			{After: at(40), Kind: faults.KindCrashOnResizePhase, Phase: malleable.PhaseSpawn, Target: "new"},
			{After: at(60), Kind: faults.KindResize, Hosts: []string{"ws1", "ws2", "ws3", "ws4", "ws5"}},
		}}},
		chaosScenario{"resize-crash-victim", faults.Plan{Name: "resize-crash-victim", Events: []faults.Event{
			{After: at(40), Kind: faults.KindCrashOnResizePhase, Phase: malleable.PhaseReshape, Target: "victim"},
			{After: at(60), Kind: faults.KindResize, Hosts: []string{"ws1", "ws2", "ws3"}},
		}}},
	)
	// The jobs-* scenarios run the multi-job control plane's preemption
	// crash windows (runJobsChaosScenario): a high-priority gang evicts a
	// low-priority one, and the fault lands inside the eviction. One kills a
	// victim rank mid-eviction-checkpoint — the image is lost, but the job
	// must still requeue and the gang rerun; the other crashes a reserved
	// host while the gang reservation is pending — Commit must fail with
	// ErrReservationLost and roll every mark back, leaving no orphaned
	// leases.
	scenarios = append(scenarios,
		chaosScenario{"jobs-kill-victim-mid-ckpt", faults.Plan{Name: "jobs-kill-victim-mid-ckpt", Events: []faults.Event{
			{After: at(5), Kind: faults.KindSubmitJob, Proc: "batch"},
			{After: at(40), Kind: faults.KindKillOnCkpt, Proc: "batch.0", Target: "proc"},
			{After: at(45), Kind: faults.KindSubmitJob, Proc: "express"},
		}}},
		chaosScenario{"jobs-crash-host-mid-reserve", faults.Plan{Name: "jobs-crash-host-mid-reserve", Events: []faults.Event{
			{After: at(5), Kind: faults.KindSubmitJob, Proc: "batch"},
			{After: at(40), Kind: faults.KindKillOnCkpt, Proc: "batch.1", Target: "host"},
			{After: at(45), Kind: faults.KindSubmitJob, Proc: "express"},
		}}},
	)
	// The registry-crashloop-* / registry-standby-* scenarios run the durable
	// control plane (persist_chaos.go): the registry journals every mutation
	// to a persist store, so a crash-looping parent bootstraps from snapshot
	// + log suffix with zero monitor re-registrations — even after a torn
	// tail write — and a warm standby promotes over the fenced primary
	// without double-admitting its pending gang reservation.
	scenarios = append(scenarios,
		chaosScenario{"registry-crashloop-under-load", faults.Plan{Name: "registry-crashloop-under-load", Events: []faults.Event{
			{After: at(60), Kind: faults.KindCrashLoopRegistry, Count: 3},
			{After: at(90), Kind: faults.KindTornWrite, Count: 5},
			{After: at(95), Kind: faults.KindRestartRegistry},
		}}},
		chaosScenario{"registry-standby-promote", faults.Plan{Name: "registry-standby-promote"}},
	)
	return scenarios
}

// ChaosScenarioNames lists the chaos scenario set in run order — the one
// authoritative list behind every "N/N scenarios survive" claim. live
// selects the sweep that appends the precopy-specific scenario
// (crash-dest-mid-precopy), so len(ChaosScenarioNames(false)) and
// len(ChaosScenarioNames(true)) are the two survival denominators;
// EXPERIMENTS.md's stated counts are pinned to them by
// TestChaosCountsMatchDocs.
func ChaosScenarioNames(live bool) []string {
	scs := chaosScenarios(live)
	names := make([]string, 0, len(scs))
	for _, sc := range scs {
		names = append(names, sc.name)
	}
	return names
}

func (cfg ChaosConfig) withChaosDefaults() ChaosConfig {
	if cfg.Scale <= 0 {
		cfg.Scale = 1000
	}
	cfg.Params = cfg.Params.withDefaults()
	return cfg
}

// RunChaos runs every selected scenario and reports survival, correctness
// and the robustness counters. The baseline scenario (no faults) anchors
// the completion-time inflation of the others.
func RunChaos(cfg ChaosConfig) ([]ChaosRow, error) {
	cfg = cfg.withChaosDefaults()
	selected := func(name string) bool {
		if len(cfg.Scenarios) == 0 {
			return true
		}
		for _, s := range cfg.Scenarios {
			if s == name {
				return true
			}
		}
		return false
	}
	var rows []ChaosRow
	baseline := 0.0
	for _, sc := range chaosScenarios(cfg.Live != nil) {
		if !selected(sc.name) {
			continue
		}
		var row ChaosRow
		var err error
		switch {
		case strings.HasPrefix(sc.name, "resize-"):
			row, err = runMalleableChaosScenario(cfg, sc)
		case strings.HasPrefix(sc.name, "jobs-"):
			row, err = runJobsChaosScenario(cfg, sc)
		case strings.HasPrefix(sc.name, "registry-crashloop-"):
			row, err = runPersistCrashloopScenario(cfg, sc)
		case strings.HasPrefix(sc.name, "registry-standby-"):
			row, err = runPersistStandbyScenario(cfg, sc)
		default:
			row, err = runChaosScenario(cfg, sc)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos %s: %w", sc.name, err)
		}
		if sc.name == "baseline" {
			baseline = row.VirtualSec
		} else if baseline > 0 && !strings.HasPrefix(sc.name, "resize-") && !strings.HasPrefix(sc.name, "jobs-") {
			// The resize and jobs scenarios run different workloads;
			// inflation against the tree baseline would be meaningless.
			row.InflationPct = (row.VirtualSec/baseline - 1) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runChaosScenario(cfg ChaosConfig, sc chaosScenario) (ChaosRow, error) {
	cl, names, err := newCluster(cfg.Params, 4)
	if err != nil {
		return ChaosRow{}, err
	}
	clock := cl.Clock()
	mreg := metrics.NewRegistry()
	in := faults.NewInjector(faults.Config{Clock: clock, Metrics: mreg})
	sys, err := core.New(core.Options{
		Cluster:          cl,
		MonitorInterval:  cfg.Interval,
		GatherCost:       0.05 * hostSpeed,
		Warmup:           2,
		Cooldown:         10 * time.Minute,
		RegistryHost:     names[3],
		ChunkBytes:       8 << 20,
		Checkpoints:      hpcm.NewMemStore(),
		CheckpointEvery:  30 * time.Second,
		FailoverRetries:  2,
		OrderDedupWindow: 30 * time.Second,
		Metrics:          mreg,
		Events:           in.Sink(),
		WrapReporter:     in.WrapReporter,
		Live:             cfg.Live,
	})
	if err != nil {
		return ChaosRow{}, err
	}
	if err := sys.AddNodes(names...); err != nil {
		return ChaosRow{}, err
	}
	defer sys.Stop()
	in.Bind(sys)

	// A couple of monitoring cycles so the registry has fresh samples for
	// its first-fit searches.
	clock.Sleep(25 * time.Second)

	tree := workload.TreeConfig{
		Levels: 10, Rounds: 40, Seed: cfg.Seed + 1,
		WorkPerNode: 600, BytesPerNode: 8,
	}
	if cfg.Live != nil {
		// A paged bulk region makes the run eligible for the live path.
		tree.BallastBytes = 4 << 20
		tree.PagedBallast = true
	}
	var mu sync.Mutex
	sums := map[int]int64{}
	tree.OnSum = func(round int, sum int64) {
		mu.Lock()
		sums[round] = sum
		mu.Unlock()
	}
	app, err := sys.Launch(chaosApp, "ws1", tree.Schema(hostSpeed), workload.TestTree(tree))
	if err != nil {
		return ChaosRow{}, err
	}
	start := clock.Now()
	in.BindApp(chaosApp, app)
	in.Run(sc.plan)

	// Virtual-deadline watchdog: a scenario that hangs is a failed scenario,
	// not a hung experiment.
	completed := true
	watchdog := clock.NewTimer(30 * time.Minute)
	select {
	case <-app.Settled():
		watchdog.Stop()
	case <-watchdog.C:
		completed = false
		// Put the app down (exhausting its failover budget) so the run can
		// be torn down cleanly.
		for settled := false; !settled; {
			app.Process().Kill()
			select {
			case <-app.Settled():
				settled = true
			case <-clock.After(100 * time.Millisecond):
			}
		}
	}
	in.Stop()
	elapsed := clock.Since(start)

	row := ChaosRow{
		Scenario:    sc.name,
		Completed:   completed,
		FinalHost:   app.Host(),
		Checkpoints: app.Process().Checkpoints(),
		Retries:     app.Retries(),
		Schedule:    append(in.Applied(), in.Triggered()...),
		VirtualSec:  elapsed.Seconds(),
	}
	if err := app.Wait(); err != nil {
		row.FinalErr = err.Error()
	}
	row.Counters = counterValues(mreg, chaosCounterNames)
	row.Spans = mreg.SpanStats("span/")
	cfg.Metrics.Merge(mreg)
	want := workload.ExpectedSums(tree)
	mu.Lock()
	row.Correct = len(sums) == tree.Rounds
	for round, sum := range want {
		if sums[round] != sum {
			row.Correct = false
		}
	}
	mu.Unlock()
	row.Survived = row.Completed && row.Correct && row.FinalErr == ""
	return row, nil
}

// renderRowDeterministic prints the parts of a row that are identical
// across runs with the same seed.
func renderRowDeterministic(b *strings.Builder, r ChaosRow) {
	fmt.Fprintf(b, "scenario %s\n", r.Scenario)
	for _, line := range r.Schedule {
		fmt.Fprintf(b, "  fault: %s\n", line)
	}
	fmt.Fprintf(b, "  survived=%v completed=%v correct=%v retries=%d\n",
		r.Survived, r.Completed, r.Correct, r.Retries)
	if r.FinalErr != "" {
		fmt.Fprintf(b, "  error: %s\n", r.FinalErr)
	}
	names := make([]string, 0, len(r.Counters))
	for name := range r.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := r.Counters[name]; v != 0 {
			fmt.Fprintf(b, "  %-28s %d\n", name, v)
		}
	}
	for _, st := range r.Spans {
		if st.Count == 0 {
			continue
		}
		// Counts only: the phase sequence is deterministic, the measured
		// durations are not (wall jitter × Scale).
		fmt.Fprintf(b, "  %-28s n=%d\n", st.Name, st.Count)
	}
}

// RenderChaosDeterministic prints the seed-reproducible part of the report:
// the fault schedule, the robustness counters and the migration phase
// counts. Two runs with the same seed produce byte-identical output (the
// acceptance check for the experiment's determinism).
func RenderChaosDeterministic(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("Chaos — fault schedule, counters and phase counts (deterministic per seed)\n")
	for _, r := range rows {
		renderRowDeterministic(&b, r)
	}
	survived := 0
	for _, r := range rows {
		if r.Survived {
			survived++
		}
	}
	fmt.Fprintf(&b, "survival: %d/%d scenarios\n", survived, len(rows))
	return b.String()
}

// RenderChaos prints the full report: the deterministic section above plus
// the timing section (virtual completion time and inflation vs baseline),
// which carries scheduling jitter of a few percent.
func RenderChaos(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString(RenderChaosDeterministic(rows))
	b.WriteString("\ntimings (approximate)\n")
	b.WriteString("scenario                   virtual(s)  inflation(%)  final-host  checkpoints\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10.1f %13.1f  %-10s %12d\n",
			r.Scenario, r.VirtualSec, r.InflationPct, r.FinalHost, r.Checkpoints)
	}
	b.WriteString("\nmigration phases, measured (approximate: durations carry wall jitter x scale)\n")
	for _, r := range rows {
		for _, st := range r.Spans {
			if st.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-26s %-14s n=%-3d p50=%-8s p95=%-8s p99=%s\n",
				r.Scenario, st.Name, st.Count, st.P50, st.P95, st.P99)
		}
	}
	return b.String()
}
