package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

// MalleableRow is one arm's outcome. Every field depends only on the seed:
// the controller judges hosts by the churn script's own state, never by
// measured load, so its proposals are a pure function of the seed, and the
// Auto clock gives every run the same timeline.
type MalleableRow struct {
	Arm        string
	Completed  bool // settled before the virtual deadline
	Correct    bool // final checksum matched the serial reference bit-exactly
	FinalErr   string
	Resizes    []string // committed/aborted resize trajectory, event order
	Committed  int
	Aborted    int
	FinalWorld int
	Counters   map[string]int64
	Spans      []metrics.SpanStat
	VirtualSec float64
}

// malleableCounterNames is the deterministic counter subset each arm
// reports.
var malleableCounterNames = []string{
	malleable.CtrResizeCommitted,
	malleable.CtrResizeAborted,
	malleable.CtrRanksSpawned,
	malleable.CtrRanksRetired,
}

// The churn script, in virtual seconds after launch. The job starts on
// ws1..ws4 while ws5..ws8 are loaded. At T1 the spares drain free and two
// seeded victims among the job's hosts overload; the controller reacts at
// T2 — the migrate arm swaps the victims for two spares, the malleable arm
// additionally grows onto the rest. At T3 one adopted spare (ws7) is
// reloaded, and at T4 the controller sheds it again (malleable arm only;
// the migrate arm never placed it).
const (
	churnT1 = 150 * time.Second
	churnT2 = 210 * time.Second
	churnT3 = 350 * time.Second
	churnT4 = 365 * time.Second
)

// RunMalleable runs the malleability experiment: the same elastic Jacobi
// job runs three times on an eight-host cluster under one seeded host-churn
// script — once at a fixed size, once with a migrate-only advisor (the world
// size is capped at the initial four, so resizes can only swap hosts), and
// once fully malleable (the job may grow onto freed hosts and shrink off
// reloaded ones). The completion-time ordering malleable <= migrate <= fixed
// is the headline: elasticity subsumes migration and beats it whenever spare
// capacity outnumbers the ranks worth moving. cfg.Metrics, when set,
// accumulates every arm's registry.
func RunMalleable(cfg Params) ([]MalleableRow, error) {
	arms := []struct {
		name    string
		advisor *registry.ElasticAdvisor
	}{
		{"fixed", nil},
		// MaxWorld 4 = the initial size: the advisor can only swap hosts,
		// which is exactly a migration per swapped rank.
		{"migrate", &registry.ElasticAdvisor{MinWorld: 4, MaxWorld: 4}},
		{"malleable", &registry.ElasticAdvisor{MinWorld: 2, MaxWorld: 8}},
	}
	rows := make([]MalleableRow, 0, len(arms))
	for _, arm := range arms {
		row, err := runMalleableArm(cfg, arm.name, arm.advisor)
		if err != nil {
			return nil, fmt.Errorf("experiments: malleable %s: %w", arm.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runMalleableArm(cfg Params, arm string, advisor *registry.ElasticAdvisor) (MalleableRow, error) {
	cl, names, err := newCluster(8)
	if err != nil {
		return MalleableRow{}, err
	}
	defer cl.Close()
	clock := cl.Clock()
	mreg := metrics.NewRegistry()
	// Few, heavy steps: per-step compute (5.76 virtual seconds at the
	// initial world) dominates each step's communication, so the world-size
	// speedup shows up plainly in the completion times.
	app := &workload.ElasticJacobi{N: 48, Iters: 120, WorkPerCell: 10000}

	var mu sync.Mutex
	var resizes []string
	observer := func(ev malleable.Event) {
		if ev.Phase != malleable.PhaseResume && ev.Phase != malleable.PhaseAbort {
			return
		}
		// The line records the trajectory: epochs and worlds, not the
		// poll-point step each resize lands on.
		line := fmt.Sprintf("%s epoch=%d %d->%d added=%v removed=%v",
			ev.Phase, ev.Epoch, ev.OldWorld, ev.NewWorld, ev.Added, ev.Removed)
		if ev.Err != "" {
			line += " err=" + ev.Err
		}
		mu.Lock()
		resizes = append(resizes, line)
		mu.Unlock()
	}

	u := mpi.NewUniverse(mpi.Options{
		Clock:        clock,
		Transport:    mpi.SimTransport{Net: cl.Net()},
		SpawnLatency: 300 * time.Millisecond,
		HostCheck:    cl.HostCheck,
	})
	job, err := malleable.Start(malleable.Options{
		Universe:     u,
		App:          app,
		Hosts:        cl,
		InitialHosts: names[:4],
		Events:       metrics.On(observer),
		Metrics:      mreg,
	})
	if err != nil {
		return MalleableRow{}, err
	}
	start := clock.Now()

	// Churn-script state. The controller builds its registry view from this
	// state rather than from measured load: the load generators make the
	// contention real (loaded ranks genuinely compute at a fraction of the
	// speed), while the resize decisions stay a pure function of the seed.
	loaded := make(map[string]bool)
	gens := make(map[string]*workload.LoadGen)
	var genSeq int64
	startGen := func(host string) {
		h, _ := cl.Host(host)
		genSeq++
		g := workload.NewLoadGen(h, workload.LoadOptions{
			Workers: 1, Duty: 1.0, Period: 5 * time.Second,
			Seed: cfg.Seed + 100 + genSeq, Name: "churn",
		})
		g.Start()
		gens[host] = g
		loaded[host] = true
	}
	stopGen := func(host string) {
		if g := gens[host]; g != nil {
			g.Stop()
			delete(gens, host)
		}
		delete(loaded, host)
	}
	tick := func() {
		if advisor == nil {
			return
		}
		placement := job.Placement()
		inPlace := make(map[string]bool, len(placement))
		for _, h := range placement {
			inPlace[h] = true
		}
		view := make([]registry.HostInfo, 0, len(names))
		for _, h := range names {
			st := rules.Free
			switch {
			case loaded[h]:
				st = rules.Overloaded
			case inPlace[h]:
				st = rules.Busy
			}
			view = append(view, registry.HostInfo{Name: h, State: st})
		}
		if target, ok := advisor.Advise(placement, view); ok {
			_ = job.Propose(target)
		}
	}

	// t=0: every spare is loaded; the job has nowhere to go.
	for _, h := range names[4:] {
		startGen(h)
	}
	// T1: the spares drain free, and two seeded victims among the job's
	// non-root hosts overload.
	clock.Sleep(churnT1)
	for _, h := range names[4:] {
		stopGen(h)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	victims := append([]string(nil), names[1:4]...)
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	victims = victims[:2]
	sort.Strings(victims)
	for _, h := range victims {
		startGen(h)
	}
	// T2: the controller reacts to the churn.
	clock.Sleep(churnT2 - churnT1)
	tick()
	// T3: one adopted spare is reloaded; T4: the controller sheds it.
	clock.Sleep(churnT3 - churnT2)
	startGen(names[6])
	clock.Sleep(churnT4 - churnT3)
	tick()

	// Virtual-deadline watchdog: the fixed arm is the slowest by design and
	// finishes well inside an hour.
	completed := vclock.Wait(clock, time.Hour, job.Done()) != nil
	if !completed {
		job.Stop()
	}
	result, werr := job.Wait()
	elapsed := clock.Since(start)
	for _, g := range gens {
		g.Stop()
	}

	committed, aborted := job.Resizes()
	mu.Lock()
	trajectory := append([]string(nil), resizes...)
	mu.Unlock()
	row := MalleableRow{
		Arm:        arm,
		Completed:  completed,
		Resizes:    trajectory,
		Committed:  committed,
		Aborted:    aborted,
		FinalWorld: job.World(),
		Spans:      mreg.SpanStats("malleable/"),
		VirtualSec: elapsed.Seconds(),
	}
	if werr != nil {
		row.FinalErr = werr.Error()
	}
	row.Counters = counterValues(mreg, malleableCounterNames)
	cfg.Metrics.Merge(mreg)
	if werr == nil {
		sum, cerr := workload.ElasticJacobiChecksum(result)
		_, want := workload.JacobiReference(workload.JacobiConfig{N: app.N, Iters: app.Iters})
		row.Correct = cerr == nil && sum == want
	}
	return row, nil
}

// RenderMalleable prints the report: each arm's resize trajectory, outcome
// and counters, then the completion times (whose ordering malleable <=
// migrate <= fixed is the experiment's claim) and the per-phase resize
// latency quantiles. Two runs with the same seed produce byte-identical
// output.
func RenderMalleable(rows []MalleableRow) string {
	var b strings.Builder
	b.WriteString("Malleability — resize trajectories and counters (deterministic per seed)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "arm %s\n", r.Arm)
		if len(r.Resizes) == 0 {
			b.WriteString("  resizes: none\n")
		}
		for _, line := range r.Resizes {
			fmt.Fprintf(&b, "  resize: %s\n", line)
		}
		fmt.Fprintf(&b, "  completed=%v correct=%v committed=%d aborted=%d final-world=%d\n",
			r.Completed, r.Correct, r.Committed, r.Aborted, r.FinalWorld)
		if r.FinalErr != "" {
			fmt.Fprintf(&b, "  error: %s\n", r.FinalErr)
		}
		names := make([]string, 0, len(r.Counters))
		for name := range r.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if v := r.Counters[name]; v != 0 {
				fmt.Fprintf(&b, "  %-28s %d\n", name, v)
			}
		}
		for _, st := range r.Spans {
			if st.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-28s n=%d\n", st.Name, st.Count)
		}
	}
	b.WriteString("\ncompletion times\n")
	b.WriteString("arm         virtual(s)  final-world  resizes\n")
	byArm := make(map[string]MalleableRow, len(rows))
	for _, r := range rows {
		byArm[r.Arm] = r
		fmt.Fprintf(&b, "%-11s %10.1f %12d %9d\n", r.Arm, r.VirtualSec, r.FinalWorld, r.Committed+r.Aborted)
	}
	ma, okM := byArm["malleable"]
	mi, okI := byArm["migrate"]
	fx, okF := byArm["fixed"]
	if okM && okI && okF {
		verdict := "OK"
		if !(ma.VirtualSec <= mi.VirtualSec && mi.VirtualSec <= fx.VirtualSec) {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(&b, "\nordering: malleable %.1fs <= migrate %.1fs <= fixed %.1fs  [%s]\n",
			ma.VirtualSec, mi.VirtualSec, fx.VirtualSec, verdict)
	}
	b.WriteString("\nresize phases, measured\n")
	for _, r := range rows {
		for _, st := range r.Spans {
			if st.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-11s %-28s n=%-3d p50=%-8s p95=%-8s p99=%s\n",
				r.Arm, st.Name, st.Count, st.P50, st.P95, st.P99)
		}
	}
	return b.String()
}
