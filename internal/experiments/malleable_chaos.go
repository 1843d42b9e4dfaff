package experiments

import (
	"fmt"
	"sync"
	"time"

	"autoresched/internal/events"
	"autoresched/internal/faults"
	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
	"autoresched/internal/workload"
)

// runMalleableChaosScenario runs a resize-* fault plan against a dedicated
// elastic job instead of the core system: the malleability engine is its own
// control plane, so the scenario interprets the plan directly — KindResize
// proposes the placement to the job, KindCrashOnResizePhase arms a one-shot
// trap on the job's resize-phase events (the elastic analogue of the
// injector's migration-phase traps). Applied events and fired traps are
// recorded in the injector's line formats, so the deterministic report
// section reads the same either way.
func runMalleableChaosScenario(cfg ChaosConfig, sc chaosScenario) (ChaosRow, error) {
	cl, names, err := newCluster(cfg.Params, 5)
	if err != nil {
		return ChaosRow{}, err
	}
	clock := cl.Clock()
	mreg := metrics.NewRegistry()
	app := &workload.ElasticJacobi{N: 24, Iters: 60, WorkPerCell: 35000}

	// The job pointer is published after Start; the observer and the plan
	// goroutine only need it from the 40-second mark on.
	var jobMu sync.Mutex
	var job *malleable.Job
	getJob := func() *malleable.Job {
		jobMu.Lock()
		defer jobMu.Unlock()
		return job
	}

	var mu sync.Mutex
	var applied, triggered []string
	trap := struct {
		armed, fired  bool
		phase, target string
	}{}
	observer := func(ev malleable.Event) {
		mu.Lock()
		if !trap.armed || trap.fired || ev.Phase != trap.phase {
			mu.Unlock()
			return
		}
		var host string
		switch trap.target {
		case "new":
			if len(ev.Added) > 0 {
				host = ev.Added[0]
			}
		case "victim":
			if len(ev.Removed) > 0 {
				host = ev.Removed[0]
			}
		}
		if host == "" {
			mu.Unlock()
			return
		}
		trap.fired = true
		triggered = append(triggered,
			fmt.Sprintf("trap crash-host host=%s proc=%s phase=%s", host, app.Name(), ev.Phase))
		mu.Unlock()
		// Fail the host at the transport first so in-flight payloads fail,
		// then at the job so the drain's liveness checks see it.
		_ = cl.Net().SetDown(host, true)
		getJob().CrashHost(host)
	}

	u := mpi.NewUniverse(mpi.Options{
		Clock:        clock,
		Transport:    mpi.SimTransport{Net: cl.Net()},
		SpawnLatency: 300 * time.Millisecond,
		HostCheck:    cl.HostCheck,
	})
	j, err := malleable.Start(malleable.Options{
		Universe:     u,
		App:          app,
		Hosts:        cl,
		InitialHosts: names[:4],
		Events:       events.On(observer),
		Metrics:      mreg,
	})
	if err != nil {
		return ChaosRow{}, err
	}
	jobMu.Lock()
	job = j
	jobMu.Unlock()
	start := clock.Now()

	// Fire the plan on the virtual clock. Events are listed in time order;
	// triggers are virtual offsets and protocol phases, so the schedule is
	// deterministic per seed.
	go func() {
		var prev time.Duration
		for _, ev := range sc.plan.Events {
			clock.Sleep(ev.After - prev)
			prev = ev.After
			line := ev.String()
			switch ev.Kind {
			case faults.KindCrashOnResizePhase:
				mu.Lock()
				trap.armed, trap.phase, trap.target = true, ev.Phase, ev.Target
				mu.Unlock()
			case faults.KindResize:
				if err := j.Propose(ev.Hosts); err != nil {
					line += " (propose failed: " + err.Error() + ")"
				}
			case faults.KindCrashHost:
				_ = cl.Net().SetDown(ev.Host, true)
				j.CrashHost(ev.Host)
			default:
				// Other fault kinds have no malleable-path interpretation;
				// the digest records them as seen-but-unapplied.
				line += " (not interpreted by the malleable-chaos driver)"
			}
			mu.Lock()
			applied = append(applied, line)
			mu.Unlock()
		}
	}()

	// Virtual-deadline watchdog, as in runChaosScenario: a wedged resize is
	// a failed scenario, not a hung experiment.
	completed := true
	watchdog := clock.NewTimer(30 * time.Minute)
	select {
	case <-j.Done():
		watchdog.Stop()
	case <-watchdog.C:
		completed = false
		j.Stop()
	}
	result, werr := j.Wait()
	elapsed := clock.Since(start)

	mu.Lock()
	schedule := append(append([]string(nil), applied...), triggered...)
	mu.Unlock()
	row := ChaosRow{
		Scenario:   sc.name,
		Completed:  completed,
		FinalHost:  j.Placement()[0],
		Schedule:   schedule,
		VirtualSec: elapsed.Seconds(),
	}
	if werr != nil {
		row.FinalErr = werr.Error()
	}
	row.Counters = counterValues(mreg, chaosCounterNames)
	row.Spans = mreg.SpanStats("malleable/")
	cfg.Metrics.Merge(mreg)
	if werr == nil {
		sum, cerr := workload.ElasticJacobiChecksum(result)
		_, want := workload.JacobiReference(workload.JacobiConfig{N: app.N, Iters: app.Iters})
		row.Correct = cerr == nil && sum == want
	}
	row.Survived = row.Completed && row.Correct && row.FinalErr == ""
	return row, nil
}
