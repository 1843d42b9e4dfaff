package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/events"
	"autoresched/internal/faults"
	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/metrics"
	"autoresched/internal/workload"
)

// Jacobi configurations of the jobs-* scenario set. On three hosts the
// low-priority gang of two ("batch") runs long enough that the
// high-priority gang of two ("express", submitted at 45 s) finds only one
// free host and must preempt — its admission reserves a gang two-phase and
// evicts batch by checkpoint-and-requeue, which is the window the fault
// plans land their kills in.
var (
	jobsChaosBatchCfg   = workload.JacobiConfig{N: 16, Iters: 600, PollEvery: 5, WorkPerCell: 500}
	jobsChaosExpressCfg = workload.JacobiConfig{N: 16, Iters: 100, PollEvery: 5, WorkPerCell: 500}
)

// jobsChaosRank builds a rank factory for one scenario job: every rank runs
// an independent Jacobi solve with registered state (so eviction
// checkpoints carry real progress), and reports its final residual into
// finals for the correctness check.
func jobsChaosRank(job string, cfg workload.JacobiConfig, mu *sync.Mutex, finals map[string]float64) func(rank, gang int) hpcm.Main {
	return func(rank, gang int) hpcm.Main {
		jc := cfg
		name := jobs.RankName(job, rank, gang)
		jc.OnResidual = func(iter int, residual float64) {
			if iter != jc.Iters {
				return
			}
			mu.Lock()
			finals[name] = residual
			mu.Unlock()
		}
		return workload.Jacobi(jc)
	}
}

// splitRankName recovers (job, rank) from a gang rank's process name
// ("batch.1" -> "batch", 1); a name without a rank suffix is a single-rank
// job.
func splitRankName(proc string) (string, int) {
	i := strings.LastIndex(proc, ".")
	if i < 0 {
		return proc, 0
	}
	rank, err := strconv.Atoi(proc[i+1:])
	if err != nil {
		return proc, 0
	}
	return proc[:i], rank
}

// runJobsChaosScenario runs a jobs-* fault plan against the multi-job
// control plane: the plan's KindSubmitJob events feed the scenario's job
// set to core.Submit under a priority-preemptive policy, and
// KindKillOnCkpt arms a one-shot trap on the unified event sink's
// checkpoint-begin events — the exact instant a preemption victim is
// writing its eviction checkpoint. FailoverRetries is zero: rank recovery
// is the job layer's business (requeue and rerun), which is precisely what
// the scenarios assert survives the kills.
func runJobsChaosScenario(cfg ChaosConfig, sc chaosScenario) (ChaosRow, error) {
	cl, names, err := newCluster(cfg.Params, 3)
	if err != nil {
		return ChaosRow{}, err
	}
	clock := cl.Clock()
	mreg := metrics.NewRegistry()

	// The system pointer is published after New; the trap only fires from
	// the 40-second mark on.
	var sysMu sync.Mutex
	var sys *core.System
	getSys := func() *core.System {
		sysMu.Lock()
		defer sysMu.Unlock()
		return sys
	}

	var mu sync.Mutex
	var applied, triggered []string
	finals := make(map[string]float64)
	trap := struct {
		armed, fired bool
		proc, target string
	}{}
	sink := events.On(func(ev hpcm.CheckpointEvent) {
		if !ev.Begin {
			return
		}
		mu.Lock()
		if !trap.armed || trap.fired || ev.Proc != trap.proc {
			mu.Unlock()
			return
		}
		trap.fired = true
		target := trap.target
		triggered = append(triggered,
			fmt.Sprintf("trap kill-on-checkpoint proc=%s host=%s target=%s", ev.Proc, ev.Host, target))
		mu.Unlock()
		s := getSys()
		if target == "host" {
			// The whole host dies mid-write: the in-progress image is lost,
			// and the pending gang reservation holding this host is
			// poisoned — Commit must fail and roll back.
			_ = s.CrashHost(ev.Host)
			return
		}
		// Only the incarnation dies mid-write; the host stays up.
		job, rank := splitRankName(ev.Proc)
		if app, err := s.RankApp(job, rank); err == nil {
			app.Process().Kill()
		}
	})

	s, err := core.New(core.Options{
		Cluster:         cl,
		MonitorInterval: cfg.Interval,
		GatherCost:      0.05 * hostSpeed,
		Warmup:          2,
		Cooldown:        10 * time.Minute,
		RegistryHost:    names[2],
		ChunkBytes:      8 << 20,
		Checkpoints:     hpcm.NewMemStore(),
		Metrics:         mreg,
		Events:          sink,
		JobPolicy:       jobs.PriorityPreemptive{},
		SchedInterval:   2 * time.Second,
	})
	if err != nil {
		return ChaosRow{}, err
	}
	if err := s.AddNodes(names...); err != nil {
		return ChaosRow{}, err
	}
	defer s.Stop()
	sysMu.Lock()
	sys = s
	sysMu.Unlock()

	// A couple of monitoring cycles so the registry has fresh leases for
	// its eligibility scans.
	clock.Sleep(25 * time.Second)

	specs := map[string]jobs.Spec{
		"batch":   {Name: "batch", Gang: 2, Priority: 0, Rank: jobsChaosRank("batch", jobsChaosBatchCfg, &mu, finals)},
		"express": {Name: "express", Gang: 2, Priority: 2, Rank: jobsChaosRank("express", jobsChaosExpressCfg, &mu, finals)},
	}
	start := clock.Now()

	// Fire the plan on the virtual clock, recording handles for the waits.
	var handleMu sync.Mutex
	var handles []*jobs.Job
	planDone := make(chan struct{})
	go func() {
		defer close(planDone)
		var prev time.Duration
		for _, ev := range sc.plan.Events {
			clock.Sleep(ev.After - prev)
			prev = ev.After
			line := ev.String()
			switch ev.Kind {
			case faults.KindSubmitJob:
				j, err := s.Submit(specs[ev.Proc])
				if err != nil {
					line += " (submit failed: " + err.Error() + ")"
				} else {
					handleMu.Lock()
					handles = append(handles, j)
					handleMu.Unlock()
				}
			case faults.KindKillOnCkpt:
				mu.Lock()
				trap.armed, trap.proc, trap.target = true, ev.Proc, ev.Target
				mu.Unlock()
			case faults.KindCrashHost:
				_ = s.CrashHost(ev.Host)
			default:
				// The remaining fault kinds are host/link-level faults this
				// driver does not model; note them in the digest untouched.
				line += " (not interpreted by the jobs-chaos driver)"
			}
			mu.Lock()
			applied = append(applied, line)
			mu.Unlock()
		}
	}()
	<-planDone
	handleMu.Lock()
	waiting := append([]*jobs.Job(nil), handles...)
	handleMu.Unlock()

	// Virtual-deadline watchdog, as in runChaosScenario: a job stuck in the
	// queue (or a wedged eviction) is a failed scenario, not a hung
	// experiment.
	settled := make(chan struct{})
	go func() {
		defer close(settled)
		for _, j := range waiting {
			<-j.Done()
		}
	}()
	completed := true
	watchdog := clock.NewTimer(30 * time.Minute)
	select {
	case <-settled:
		watchdog.Stop()
	case <-watchdog.C:
		completed = false
		// Cancel the survivors (repeatedly: a job mid-admission refuses
		// until it lands) so the run can be torn down cleanly.
		terminal := func(st jobs.State) bool {
			return st == jobs.StateCompleted || st == jobs.StateFailed || st == jobs.StateCancelled
		}
		for _, j := range waiting {
			for !terminal(j.State()) {
				_ = s.CancelJob(j.Name())
				clock.Sleep(200 * time.Millisecond)
			}
		}
		<-settled
	}
	elapsed := clock.Since(start)

	// The orphaned-lease check: every reservation taken during the run must
	// have been committed or rolled back by now, crash or no crash.
	reserved := s.Registry().Reserved()
	mu.Lock()
	triggered = append(triggered, fmt.Sprintf("check reservations-outstanding=%d", len(reserved)))
	schedule := append(append([]string(nil), applied...), triggered...)
	mu.Unlock()

	row := ChaosRow{
		Scenario:   sc.name,
		Completed:  completed,
		Schedule:   schedule,
		VirtualSec: elapsed.Seconds(),
	}
	var errs []string
	for _, j := range waiting {
		if err := j.Err(); err != nil {
			errs = append(errs, j.Name()+": "+err.Error())
		}
	}
	if len(reserved) > 0 {
		errs = append(errs, fmt.Sprintf("orphaned reservations: %v", reserved))
	}
	row.FinalErr = strings.Join(errs, "; ")
	row.Counters = counterValues(mreg, chaosCounterNames)
	row.Spans = mreg.SpanStats("span/")
	cfg.Metrics.Merge(mreg)

	// Correctness: all four ranks — the killed one included, whether it
	// resumed from an older image or cold-started — converged to the
	// reference residual.
	wantBatch, _ := workload.JacobiReference(jobsChaosBatchCfg)
	wantExpress, _ := workload.JacobiReference(jobsChaosExpressCfg)
	want := map[string]float64{
		jobs.RankName("batch", 0, 2):   wantBatch,
		jobs.RankName("batch", 1, 2):   wantBatch,
		jobs.RankName("express", 0, 2): wantExpress,
		jobs.RankName("express", 1, 2): wantExpress,
	}
	mu.Lock()
	row.Correct = len(waiting) == len(specs)
	for name, w := range want {
		if got, ok := finals[name]; !ok || got != w {
			row.Correct = false
		}
	}
	mu.Unlock()
	row.Survived = row.Completed && row.Correct && row.FinalErr == ""
	return row, nil
}
