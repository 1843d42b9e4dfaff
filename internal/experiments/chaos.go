package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/faults"
	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/persist"
	"autoresched/internal/registry"
	"autoresched/internal/vclock"
)

// ChaosConfig tunes the chaos experiment: a fixed table of seeded fault
// scenarios (chaosScenarios), each run on the one rig (runChaosScenario) —
// a checksummed workload on a small cluster while the injector crashes
// hosts, partitions links, restarts the registry, redelivers orders and
// springs crashes at exact protocol phases.
type ChaosConfig struct {
	Params
	// scenarios selects a subset by name; empty runs all.
	scenarios []string
	// paged gives the tree workload a paged ballast region, so every
	// migrate order takes the iterative-precopy live path, and adds a ninth
	// scenario that crashes the destination mid-precopy. False keeps the
	// classic stop-and-copy runs (and their byte-identical reports).
	paged bool
}

// ChaosRow is one scenario's outcome. Every field depends only on the seed:
// fault triggers are virtual-time offsets and protocol phases, and the
// Auto clock gives every run the same timeline.
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
	// histograms).
	Spans []metrics.SpanStat

	VirtualSec   float64
	InflationPct float64 // vs the baseline scenario
	FinalHost    string
	Checkpoints  int
}

// chaosCounterNames is the deterministic counter subset each row reports:
// every one is driven by a count-based or phase-based trigger, never by a
// wall-time race.
var chaosCounterNames = []string{
	faults.CtrStatusDropped,
	faults.CtrStatusDuplicated,
	faults.CtrStatusDelayed,
	monitor.CtrReregisters,
	core.CtrOrdersDeduped,
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

// chaosScenario is one entry of the chaos table: everything that differs
// between two runs of the one rig (runChaosScenario).
type chaosScenario struct {
	name string
	// events is the fault plan, run through the rig's faults.Injector.
	events []faults.Event
	hosts  int
	// bare leaves the cluster without monitors and skips the warm-up: the
	// workload brings its own control plane (the malleability engine).
	bare bool
	// sys holds the core.Options this scenario chose — checkpoint, failover
	// and dedup settings, the job policy, a durable Store and its
	// snapshot cadence; the rig supplies every other field. With a Store,
	// each registry restart's typed payload goes to the check log.
	sys  core.Options
	load chaosWorkload
	// spans is the metric prefix of the row's phase summaries.
	spans string
	// inflates marks a run of the baseline's workload, whose completion time
	// is reported as inflation over the baseline's.
	inflates bool
	// drive, when set, runs between the start of the plan and the watch: a
	// sequence that interleaves actions with assertions, which a fault plan
	// cannot express (the standby drill).
	drive func(*chaosRig) error
	// check, when set, appends the scenario's post-run assertions to the
	// check log once the workload has settled.
	check func(*chaosRig)
}

// chaosWorkload is what a scenario runs under its faults. One value serves
// one run.
type chaosWorkload interface {
	// launch starts the workload (or binds what the plan will submit) and
	// binds it to the rig's injector under the names the plan uses.
	launch(r *chaosRig) error
	// settled fires once the workload has finished, either way.
	settled(r *chaosRig) *vclock.Event
	// putDown forces a workload that outlived the watchdog to settle; the
	// rig repeats it until settled fires.
	putDown(r *chaosRig)
	// verify fills the row's outcome fields: Correct, FinalErr and whatever
	// of Retries, FinalHost and Checkpoints the workload has.
	verify(r *chaosRig, row *ChaosRow)
}

// chaosScenarios is the fixed scenario set, one table entry each; adding a
// scenario is adding an entry (EXPERIMENTS.md, "Chaos"). Offsets are virtual
// seconds after launch; every workload runs several hundred virtual seconds,
// so every fault lands mid-computation. paged gives the tree workload a
// paged region, which turns its migrations into iterative precopy, and adds
// the precopy-specific scenario, which only makes sense on that path.
func chaosScenarios(paged bool) []chaosScenario {
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }
	recovering := core.Options{
		CheckpointEvery: 30 * time.Second,
		FailoverRetries: 2,
	}
	// The checksummed tree computation on four monitored hosts, launched on
	// ws1 and recovered from its last checkpoint on failure.
	tree := func(name string, evs ...faults.Event) chaosScenario {
		return chaosScenario{name: name, events: evs, hosts: 4, sys: recovering,
			load: &treeLoad{paged: paged}, spans: "span/", inflates: true}
	}
	// An elastic Jacobi job on four of five hosts, driven by the
	// malleability engine: the resize crash windows.
	elastic := func(name string, evs ...faults.Event) chaosScenario {
		return chaosScenario{name: name, events: evs, hosts: 5, bare: true,
			load: &elasticLoad{}, spans: "malleable/"}
	}
	// The batch/express gang pair on three hosts under a preemptive policy:
	// express finds one free host and must evict batch, which is the window
	// the plans land their kills in. No failover budget: rank recovery is
	// the job layer's business (requeue and rerun), which is what the
	// scenarios assert survives.
	gangs := func(name string, evs ...faults.Event) chaosScenario {
		return chaosScenario{name: name, events: evs, hosts: 3,
			sys:  core.Options{JobPolicy: jobs.PriorityPreemptive{}, SchedInterval: 2 * time.Second},
			load: &gangLoad{}, spans: "span/"}
	}
	// The tree computation again (always stop-and-copy), with the registry
	// journalling every mutation to a persist.MemStore, so a restart is a
	// crash-consistent bootstrap instead of a soft-state drop.
	durable := func(name string, evs ...faults.Event) chaosScenario {
		sys := recovering
		sys.Store = persist.NewMemStore()
		return chaosScenario{name: name, events: evs, hosts: 4, sys: sys,
			load: &treeLoad{}, spans: "span/", inflates: true}
	}

	scenarios := []chaosScenario{
		tree("baseline"),
		tree("heartbeat-faults",
			faults.Event{After: at(40), Kind: faults.KindDropStatus, Host: "ws2", Count: 2},
			faults.Event{After: at(45), Kind: faults.KindDupStatus, Host: "ws3", Count: 2},
			faults.Event{After: at(50), Kind: faults.KindDelayStatus, Host: "ws2", Count: 1, Delay: 2 * time.Second}),
		tree("degraded-migration",
			faults.Event{After: at(40), Kind: faults.KindLinkFactor, Host: "ws1", Peer: "ws2", Factor: 0.25},
			faults.Event{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
			faults.Event{After: at(150), Kind: faults.KindLinkFactor, Host: "ws1", Peer: "ws2", Factor: 1}),
		tree("partition-abort",
			faults.Event{After: at(40), Kind: faults.KindPartition, Host: "ws1", Peer: "ws2"},
			faults.Event{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
			faults.Event{After: at(150), Kind: faults.KindHeal, Host: "ws1", Peer: "ws2"}),
		tree("crash-dest-mid-migration",
			faults.Event{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhaseInit, Target: "dest"},
			faults.Event{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"}),
		tree("crash-source-post-commit",
			faults.Event{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhaseResume, Target: "source"},
			faults.Event{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"}),
		tree("registry-restart",
			faults.Event{After: at(60), Kind: faults.KindRestartRegistry}),
		tree("duplicate-order",
			faults.Event{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2", Count: 3}),
	}
	if paged {
		// The destination dies after the first precopy round: the freeze (or
		// next round) hits a dead host, the attempt aborts pre-commit, and
		// the runtime falls back to checkpoint recovery.
		scenarios = append(scenarios, tree("crash-dest-mid-precopy",
			faults.Event{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhasePrecopy, Round: 1, Target: "dest"},
			faults.Event{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"}))
	}
	// One plan kills a freshly spawned rank mid-expand, which must abort the
	// resize cleanly back to the old world; the other kills a victim host
	// mid-shrink after the drain, which must not stop the shrink from
	// committing.
	scenarios = append(scenarios,
		elastic("resize-crash-new-rank",
			faults.Event{After: at(40), Kind: faults.KindCrashOnResizePhase, Phase: malleable.PhaseSpawn, Target: "new"},
			faults.Event{After: at(60), Kind: faults.KindResize, Hosts: []string{"ws1", "ws2", "ws3", "ws4", "ws5"}}),
		elastic("resize-crash-victim",
			faults.Event{After: at(40), Kind: faults.KindCrashOnResizePhase, Phase: malleable.PhaseReshape, Target: "victim"},
			faults.Event{After: at(60), Kind: faults.KindResize, Hosts: []string{"ws1", "ws2", "ws3"}}),
	)
	// Express's admission reserves a gang two-phase and evicts batch by
	// checkpoint-and-requeue. One plan kills a victim rank mid-eviction-
	// checkpoint — the image is lost, but the job must still requeue and
	// the gang rerun; the other crashes a reserved host while the gang
	// reservation is pending — Commit must fail with ErrReservationLost and
	// roll every mark back, leaving no orphaned leases.
	scenarios = append(scenarios,
		gangs("jobs-kill-victim-mid-ckpt",
			faults.Event{After: at(5), Kind: faults.KindSubmitJob, Proc: "batch"},
			faults.Event{After: at(40), Kind: faults.KindKillOnCkpt, Proc: "batch.0", Target: "proc"},
			faults.Event{After: at(45), Kind: faults.KindSubmitJob, Proc: "express"}),
		gangs("jobs-crash-host-mid-reserve",
			faults.Event{After: at(5), Kind: faults.KindSubmitJob, Proc: "batch"},
			faults.Event{After: at(40), Kind: faults.KindKillOnCkpt, Proc: "batch.1", Target: "host"},
			faults.Event{After: at(45), Kind: faults.KindSubmitJob, Proc: "express"}),
	)
	// The durable control plane (persist_chaos.go): a crash-looping parent
	// bootstraps from snapshot + log suffix with zero monitor
	// re-registrations — even after a torn tail write — and a warm standby
	// promotes over the fenced primary without double-admitting its pending
	// gang reservation.
	crashloop := durable("registry-crashloop-under-load",
		faults.Event{After: at(60), Kind: faults.KindCrashLoopRegistry, Count: 3},
		faults.Event{After: at(90), Kind: faults.KindTornWrite, Count: 5},
		faults.Event{After: at(95), Kind: faults.KindRestartRegistry})
	crashloop.check = checkCrashloopRecovery
	standby := durable("registry-standby-promote")
	standby.drive, standby.check = driveStandbyPromotion, checkNoResync
	return append(scenarios, crashloop, standby)
}

// RunChaos runs every selected scenario and reports survival, correctness
// and the robustness counters. The baseline scenario (no faults) anchors
// the completion-time inflation of the others that run its workload.
func RunChaos(cfg ChaosConfig) ([]ChaosRow, error) {
	selected := func(name string) bool {
		if len(cfg.scenarios) == 0 {
			return true
		}
		for _, s := range cfg.scenarios {
			if s == name {
				return true
			}
		}
		return false
	}
	var rows []ChaosRow
	baseline := 0.0
	for _, sc := range chaosScenarios(cfg.paged) {
		if !selected(sc.name) {
			continue
		}
		row, err := runChaosScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos %s: %w", sc.name, err)
		}
		if sc.name == "baseline" {
			baseline = row.VirtualSec
		} else if baseline > 0 && sc.inflates {
			row.InflationPct = (row.VirtualSec/baseline - 1) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// chaosRig is one scenario's run: the system under test, the injector
// faulting it, and the note/check log the scenario's own steps append to.
type chaosRig struct {
	cfg   ChaosConfig
	names []string
	mreg  *metrics.Registry
	in    *faults.Injector
	sys   *core.System

	mu    sync.Mutex
	notes []string
}

// note appends one deterministic line to the schedule digest, after the
// injector's applied and triggered lines.
func (r *chaosRig) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// restartLog notes every registry restart's typed payload. Recovered, Hosts
// and Procs are count-driven (never wall-time-driven), so the lines are
// byte-identical across runs with the same seed.
func (r *chaosRig) restartLog() metrics.Sink {
	restarts := 0
	return metrics.On(func(ev registry.RestartEvent) {
		r.mu.Lock()
		restarts++
		r.notes = append(r.notes, fmt.Sprintf("check restart-%d recovered=%v hosts=%d procs=%d",
			restarts, ev.Recovered, ev.Hosts, ev.Procs))
		r.mu.Unlock()
	})
}

// runChaosScenario is the one rig: cluster, injector and core.System; warm
// up; launch the workload; run the plan through the injector; watch; and
// assemble the row.
func runChaosScenario(cfg ChaosConfig, sc chaosScenario) (ChaosRow, error) {
	cl, names, err := newCluster(sc.hosts)
	if err != nil {
		return ChaosRow{}, err
	}
	defer cl.Close()
	clock := cl.Clock()
	r := &chaosRig{cfg: cfg, names: names, mreg: metrics.NewRegistry()}
	r.in = faults.NewInjector(faults.Config{Clock: clock, Metrics: r.mreg})
	var restarts metrics.Sink
	if sc.sys.Store != nil {
		restarts = r.restartLog()
	}
	r.sys, err = core.New(core.Options{
		Cluster:      cl,
		GatherCost:   0.05 * hostSpeed,
		Warmup:       2,
		Cooldown:     10 * time.Minute,
		RegistryHost: names[len(names)-1],
		ChunkBytes:   8 << 20,
		Checkpoints:  hpcm.NewMemStore(),
		Metrics:      r.mreg,
		Events:       metrics.Multi(r.in.Sink(), restarts),
		WrapReporter: r.in.WrapReporter,

		CheckpointEvery: sc.sys.CheckpointEvery,
		FailoverRetries: sc.sys.FailoverRetries,
		JobPolicy:       sc.sys.JobPolicy,
		SchedInterval:   sc.sys.SchedInterval,
		Store:           sc.sys.Store,
	})
	if err != nil {
		return ChaosRow{}, err
	}
	defer r.sys.Stop()
	r.in.Bind(r.sys)
	if !sc.bare {
		if err := r.sys.AddNodes(names...); err != nil {
			return ChaosRow{}, err
		}
		// A couple of monitoring cycles so the registry has fresh samples and
		// leases for its first-fit searches (and a durable change log a
		// realistic prefix) before the faults land.
		clock.Sleep(25 * time.Second)
	}

	if err := sc.load.launch(r); err != nil {
		return ChaosRow{}, err
	}
	start := clock.Now()
	r.in.Run(faults.Plan{Events: sc.events})
	if sc.drive != nil {
		if err := sc.drive(r); err != nil {
			return ChaosRow{}, err
		}
	}

	// Virtual-deadline watchdog: a scenario that hangs is a failed scenario,
	// not a hung experiment. The workload is then put down, repeatedly (an
	// app has a failover budget to exhaust, a job mid-admission refuses a
	// cancel until it lands), so the run can be torn down cleanly.
	completed := true
	settled := sc.load.settled(r)
	if vclock.Wait(clock, 30*time.Minute, settled) == nil {
		completed = false
		for down := false; !down; {
			sc.load.putDown(r)
			down = vclock.Wait(clock, 100*time.Millisecond, settled) != nil
		}
	}
	r.in.Stop()
	row := ChaosRow{Scenario: sc.name, Completed: completed, VirtualSec: clock.Since(start).Seconds()}

	if sc.check != nil {
		sc.check(r)
	}
	sc.load.verify(r, &row)
	r.mu.Lock()
	row.Schedule = append(append(r.in.Applied(), r.in.Triggered()...), r.notes...)
	r.mu.Unlock()
	row.Counters = counterValues(r.mreg, chaosCounterNames)
	row.Spans = r.mreg.SpanStats(sc.spans)
	cfg.Metrics.Merge(r.mreg)
	row.Survived = row.Completed && row.Correct && row.FinalErr == ""
	return row, nil
}

// renderRow prints one scenario's schedule, outcome, counters and phase
// counts.
func renderRow(b *strings.Builder, r ChaosRow) {
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
		fmt.Fprintf(b, "  %-28s n=%d\n", st.Name, st.Count)
	}
}

// RenderChaos prints the report: per scenario the fault schedule, the
// robustness counters and the migration phase counts, the survival tally,
// then the timings (virtual completion time and inflation vs baseline) and
// the measured phase quantiles. Two runs with the same seed produce
// byte-identical output.
func RenderChaos(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("Chaos — fault schedule, counters and phase counts (deterministic per seed)\n")
	for _, r := range rows {
		renderRow(&b, r)
	}
	survived := 0
	for _, r := range rows {
		if r.Survived {
			survived++
		}
	}
	fmt.Fprintf(&b, "survival: %d/%d scenarios\n", survived, len(rows))
	b.WriteString("\ntimings\n")
	b.WriteString("scenario                   virtual(s)  inflation(%)  final-host  checkpoints\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10.1f %13.1f  %-10s %12d\n",
			r.Scenario, r.VirtualSec, r.InflationPct, r.FinalHost, r.Checkpoints)
	}
	b.WriteString("\nmigration phases, measured\n")
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
