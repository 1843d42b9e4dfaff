package scenario

import (
	"fmt"
	"sort"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/persist"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

// The live bridge: a generated scenario submitted through the real control
// plane. Where Runner models a fleet analytically (and byte-deterministic,
// for goldens), RunLive builds a core.System over a simulated cluster and
// pushes the scenario's job queue through System.Submit, so the generator's
// output exercises the live dispatcher, registry and rank launcher — the
// smoke check that generated scenarios are valid inputs to the real
// machinery, not just to the model.

// LiveOutcome is the result of one live run.
type LiveOutcome struct {
	Submitted int
	Completed int
	Failed    int
}

// rankMain builds one rank body for the scenario's workload axis. Both run
// a small registered-state computation so eviction checkpoints carry real
// state; the tree workload adds a deeper refinement pattern.
func rankMain(wl string) func(rank, gang int) hpcm.Main {
	iters := 12
	if wl == WorkloadTree {
		iters = 20
	}
	return func(rank, gang int) hpcm.Main {
		return workload.Jacobi(workload.JacobiConfig{
			N: 8, Iters: iters, PollEvery: 1, WorkPerCell: 200,
		})
	}
}

// RunLive executes the scenario's job queue on a live core.System over an
// Auto sim clock: the fleet is built host-for-host (HostName order), the
// scenario's policy drives the dispatcher, and every job goes in through
// System.Submit at its arrival second. Fault injection is the model
// runner's business; RunLive submits the queue as-is and waits for it to
// settle, bounded by timeout in virtual time from the start of the run.
func RunLive(s Scenario, timeout time.Duration) (LiveOutcome, error) {
	var out LiveOutcome
	policy, err := jobs.PolicyByName(s.Policy)
	if err != nil {
		return out, fmt.Errorf("live: %w", err)
	}
	clock := vclock.NewAuto(vclock.Epoch)
	cl := core.NewCluster(clock, s.Bandwidth())
	defer cl.Close()
	var names []string
	for i := 0; i < s.Hosts; i++ {
		name := HostName(i)
		if _, err := cl.AddHost(name, sim.Config{Speed: 1e6, MemTotal: 128 << 20}); err != nil {
			return out, fmt.Errorf("live: building fleet: %w", err)
		}
		names = append(names, name)
	}
	opts := core.Options{
		Cluster:       cl,
		JobPolicy:     policy,
		SchedInterval: time.Duration(s.SchedEverySec) * time.Second,
	}
	if s.Persistence == PersistFile {
		// The live bridge runs in-memory; a MemStore stands in for the
		// file-backed store (same Store contract, same registry WAL path)
		// so durable scenarios exercise the journaling code live.
		opts.Store = persist.NewMemStore()
	}
	sys, err := core.New(opts)
	if err != nil {
		return out, fmt.Errorf("live: %w", err)
	}
	defer sys.Stop()
	if err := sys.AddNodes(names...); err != nil {
		return out, fmt.Errorf("live: %w", err)
	}

	deadline := clock.Now().Add(timeout)
	arrivals := append([]JobSpec(nil), s.Jobs...)
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].ArrivalSec < arrivals[b].ArrivalSec })
	var submitted []*jobs.Job
	for _, j := range arrivals {
		clock.Sleep(vclock.Epoch.Add(time.Duration(j.ArrivalSec) * time.Second).Sub(clock.Now()))
		job, err := sys.Submit(jobs.Spec{
			Name:     j.Name,
			Priority: j.Priority,
			Gang:     j.Gang,
			Elastic:  j.Elastic,
			MinWorld: j.MinWorld,
			Rank:     rankMain(s.Workload),
		})
		if err != nil {
			return out, fmt.Errorf("live: submitting %s: %w", j.Name, err)
		}
		submitted = append(submitted, job)
		out.Submitted++
	}

	for _, job := range submitted {
		if vclock.Wait(clock, deadline.Sub(clock.Now()), job.Done()) == nil {
			return out, fmt.Errorf("live: job %s stuck in %s at timeout", job.Name(), job.State())
		}
		if job.State() == jobs.StateCompleted {
			out.Completed++
		} else {
			out.Failed++
		}
	}
	return out, nil
}
