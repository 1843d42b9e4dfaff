package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"autoresched/internal/jobs"
	"autoresched/internal/scenario"
)

// The multi-job policy shoot-out: FIFO vs. priority-preemptive vs. backfill
// over one seeded queue of gang jobs on one seeded host-churn script. Each
// arm is a pinned scenario.Scenario — same jobs, same crashes, only the
// policy differs — executed by scenario.Runner, the one discrete-tick model
// of the cluster: admissions from the planner the live dispatcher executes
// (jobs.PlanCycle), preemption and crash-requeue preserving progress (the
// checkpoint), migrate evictions paying the livemig freeze window. Every
// quantity is an integer derived from the seed: the report is
// byte-deterministic, and a seed + policy name pins the whole schedule.

// The shoot-out's fixed shape: a queue deep enough for contention on a
// fleet whose every fourth host is "big" (the heterogeneous class some jobs
// require), arrivals and crashes inside a 200 s horizon.
const (
	multijobJobs       = 64
	multijobHosts      = 16
	multijobHorizonSec = 200
)

// MultijobConfig tunes the shoot-out.
type MultijobConfig struct {
	Params
}

// WaitQuantiles are per-priority queue-wait statistics, in ticks.
type WaitQuantiles struct {
	Jobs int
	P50  int
	P90  int
	Max  int
}

// MultijobRow is one policy's outcome over the shared job set and churn
// script. Everything is deterministic per seed.
type MultijobRow struct {
	Policy        string
	Completed     int
	MakespanTicks int
	// Waits keys per-priority wait quantiles (arrival to first admission,
	// over the jobs that were admitted) by priority level.
	Waits map[int]WaitQuantiles
	// Preemptions counts planner evictions by mode.
	Preemptions map[jobs.EvictMode]int
	// ChurnRequeues and ChurnShrinks count host-crash victims (requeued
	// rigid jobs, shrunk elastic ones) — identical churn hits each arm.
	ChurnRequeues int
	ChurnShrinks  int
}

// genJobs derives the job set from the seed: gangs of 1..8, three priority
// levels, a third of the multi-rank jobs elastic, and a slice of small jobs
// pinned to the big host class so preemption's migrate arm has a
// heterogeneous case to find.
func genJobs(seed int64) []scenario.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	gangs := []int{1, 1, 2, 2, 4, 8}
	out := make([]scenario.JobSpec, multijobJobs)
	for i := range out {
		j := scenario.JobSpec{
			Name:       fmt.Sprintf("job%03d", i),
			Priority:   rng.Intn(3),
			Gang:       gangs[rng.Intn(len(gangs))],
			Big:        rng.Intn(8) == 0,
			ArrivalSec: rng.Intn(150),
		}
		if j.Big {
			// The big class is a quarter of the fleet; keep its gangs small
			// so they always remain feasible.
			j.Gang = 1 + rng.Intn(2)
		}
		j.MinWorld = j.Gang
		if j.Gang >= 2 && rng.Intn(3) == 0 {
			j.Elastic = true
			j.MinWorld = j.Gang / 2
		}
		j.WorkSec = 10 + rng.Intn(40)
		out[i] = j
	}
	return out
}

// genChurn derives the host-churn script from the seed.
func genChurn(seed int64) []scenario.FaultSpec {
	rng := rand.New(rand.NewSource(seed + 1))
	out := make([]scenario.FaultSpec, multijobHosts/4)
	for i := range out {
		out[i] = scenario.FaultSpec{
			Kind:    scenario.FaultCrashHost,
			AtSec:   30 + rng.Intn(150),
			Host:    scenario.HostName(rng.Intn(multijobHosts)),
			DownSec: 20 + rng.Intn(30),
		}
	}
	// Same-second crashes apply in fleet order (the Runner's own sort is
	// stable on AtSec alone).
	sort.Slice(out, func(a, b int) bool {
		if out[a].AtSec != out[b].AtSec {
			return out[a].AtSec < out[b].AtSec
		}
		return out[a].Host < out[b].Host
	})
	return out
}

// multijobSpace is DefaultSpace narrowed to the shoot-out's fixed shape;
// every scenario RunMultijob hands the Runner passes its Check.
func multijobSpace() scenario.Space {
	sp := scenario.DefaultSpace()
	sp.Hosts = scenario.Range{Min: multijobHosts, Max: multijobHosts}
	sp.JobCount = scenario.Range{Min: multijobJobs, Max: multijobJobs}
	sp.Duration = scenario.Range{Min: multijobHorizonSec, Max: multijobHorizonSec}
	return sp
}

// multijobScenarios builds the shoot-out for one seed: one scenario per
// stock policy over the same job set and churn script.
func multijobScenarios(seed int64) []scenario.Scenario {
	jobSet, churn := genJobs(seed), genChurn(seed)
	var out []scenario.Scenario
	for i, p := range jobs.Policies() {
		out = append(out, scenario.Scenario{
			Name:          fmt.Sprintf("multijob-s%d-%s", seed, p.Name()),
			Seed:          seed,
			Index:         i,
			Workload:      scenario.WorkloadJacobi,
			MemMode:       scenario.MemElastic,
			Migration:     scenario.MigrateStopCopy,
			Policy:        p.Name(),
			Persistence:   scenario.PersistNone,
			LinkMbps:      1000,
			Hosts:         multijobHosts,
			StateMB:       1,
			DurationSec:   multijobHorizonSec,
			SchedEverySec: 1,
			Jobs:          jobSet,
			Faults:        churn,
		})
	}
	return out
}

// RunMultijob runs the shoot-out: each stock policy over the same seeded
// job set and churn script.
func RunMultijob(cfg MultijobConfig) []MultijobRow {
	space := multijobSpace()
	var rows []MultijobRow
	for _, s := range multijobScenarios(cfg.Seed) {
		if err := space.Check(s); err != nil {
			panic(fmt.Sprintf("experiments: multijob built an incoherent scenario: %v", err))
		}
		rows = append(rows, multijobRow(scenario.Runner{}.Run(s)))
	}
	return rows
}

// multijobRow reads one arm's report row off the Runner's result.
func multijobRow(res scenario.Result) MultijobRow {
	row := MultijobRow{
		Policy:        res.Outcome.Policy,
		Completed:     res.Outcome.JobsCompleted,
		MakespanTicks: res.Outcome.MakespanSec,
		Waits:         make(map[int]WaitQuantiles),
		Preemptions:   make(map[jobs.EvictMode]int),
		ChurnRequeues: res.Outcome.ChurnRequeues,
		ChurnShrinks:  res.Outcome.ChurnShrinks,
	}
	for mode, n := range res.Outcome.Preemptions {
		row.Preemptions[jobs.EvictMode(mode)] = n
	}
	waits := make(map[int][]int)
	for _, j := range res.Scenario.Jobs {
		if at, ok := res.FirstAdmitSec[j.Name]; ok {
			waits[j.Priority] = append(waits[j.Priority], at-j.ArrivalSec)
		}
	}
	for prio, w := range waits {
		sort.Ints(w)
		row.Waits[prio] = WaitQuantiles{
			Jobs: len(w),
			P50:  w[len(w)/2],
			P90:  w[len(w)*9/10],
			Max:  w[len(w)-1],
		}
	}
	return row
}

// RenderMultijob prints the shoot-out report. Every number is an integer
// function of the seed: two runs with the same seed produce byte-identical
// output.
func RenderMultijob(rows []MultijobRow) string {
	var b strings.Builder
	b.WriteString("Multi-job policy shoot-out (deterministic per seed; ticks)\n")
	b.WriteString("policy               done  makespan  preempt(requeue/shrink/migrate)  churn(requeue/shrink)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %4d %9d  %7d /%6d /%7d          %7d /%6d\n",
			r.Policy, r.Completed, r.MakespanTicks,
			r.Preemptions[jobs.EvictRequeue], r.Preemptions[jobs.EvictShrink], r.Preemptions[jobs.EvictMigrate],
			r.ChurnRequeues, r.ChurnShrinks)
	}
	b.WriteString("\nqueue wait by priority (ticks)\n")
	b.WriteString("policy               prio  jobs   p50   p90   max\n")
	for _, r := range rows {
		prios := make([]int, 0, len(r.Waits))
		for p := range r.Waits {
			prios = append(prios, p)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(prios)))
		for _, p := range prios {
			w := r.Waits[p]
			fmt.Fprintf(&b, "%-20s %5d %5d %5d %5d %5d\n", r.Policy, p, w.Jobs, w.P50, w.P90, w.Max)
		}
	}
	return b.String()
}
