package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

// ScaleConfig tunes the scale experiment: the paper's 64-host topology plus
// larger sweeps, each running the checksummed tree computation under churn —
// background load on a slice of the cluster and injected overloads on the
// app hosts — while the control plane's work is counted: heartbeat
// throughput into the registry, and migrations ordered and completed. (Placement's cost in code is measured by BenchmarkCandidate512
// and the end-to-end benchmark's registry.place_us.)
type ScaleConfig struct {
	Params
	// Hosts lists the sweep sizes; empty selects 64, 256, 512.
	Hosts []int
}

// Each sweep's fixed shape: scaleApps tree applications, the first
// scaleOverloads of their hosts overloaded mid-run (provoking migrations),
// and a busy-but-not-overloaded load generator on every
// scaleBackgroundEvery-th host — the churn the registry must index through.
const (
	scaleApps            = 4
	scaleOverloads       = 2
	scaleBackgroundEvery = 8
)

// ScaleRow is one sweep's outcome; every field depends only on the seed.
type ScaleRow struct {
	Hosts     int
	Apps      int
	Completed int  // apps settled before the virtual deadline
	Correct   bool // every completed app's checksums matched
	Overloads int

	VirtualSec          float64
	Heartbeats          int64   // status reports leaving the monitors
	HeartbeatsPerSec    float64 // per virtual second
	MigrationsOrdered   int
	MigrationsCommitted int64
	EventsSeen          int // unified-sink events captured
	// Spans holds the per-phase migration-latency summaries.
	Spans []metrics.SpanStat
}

func (cfg ScaleConfig) withScaleDefaults() ScaleConfig {
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = []int{64, 256, 512}
	}
	return cfg
}

// countingReporter wraps each host's reporter to count the status reports
// the monitors emit — the heartbeat throughput the registry must absorb.
// One counter is shared by every host's wrapper.
type countingReporter struct {
	n     *atomic.Int64
	inner monitor.Reporter
}

func (c *countingReporter) RegisterHost(host string, static proto.StaticInfo) error {
	return c.inner.RegisterHost(host, static)
}

func (c *countingReporter) ReportStatus(host string, status proto.Status) error {
	c.n.Add(1)
	return c.inner.ReportStatus(host, status)
}

func (c *countingReporter) UnregisterHost(host string) error {
	return c.inner.UnregisterHost(host)
}

// RunScale runs every sweep size and reports completion, correctness and
// the control-plane measurements.
func RunScale(cfg ScaleConfig) ([]ScaleRow, error) {
	cfg = cfg.withScaleDefaults()
	rows := make([]ScaleRow, 0, len(cfg.Hosts))
	for _, n := range cfg.Hosts {
		row, err := runScaleSweep(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale %d hosts: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runScaleSweep(cfg ScaleConfig, nHosts int) (ScaleRow, error) {
	cl, names, err := newCluster(nHosts)
	if err != nil {
		return ScaleRow{}, err
	}
	defer cl.Close()
	clock := cl.Clock()
	mreg := metrics.NewRegistry()
	ring := &metrics.Ring{Cap: 4096}
	heartbeats := &atomic.Int64{}
	sys, err := core.New(core.Options{
		Cluster:    cl,
		Warmup:     2,
		Cooldown:   10 * time.Minute,
		ChunkBytes: 8 << 20,
		Metrics:    mreg,
		Events:     ring,
		WrapReporter: func(host string, r monitor.Reporter) monitor.Reporter {
			return &countingReporter{n: heartbeats, inner: r}
		},
	})
	if err != nil {
		return ScaleRow{}, err
	}
	if err := sys.AddNodes(names...); err != nil {
		return ScaleRow{}, err
	}
	defer sys.Stop()

	// Churn: every k-th non-app host runs busy (load ~1.5) so the registry's
	// state sets keep moving while placements search the Free set.
	var gens []*workload.LoadGen
	defer func() {
		for _, g := range gens {
			g.Stop()
		}
	}()
	for i := scaleApps; i < nHosts; i += scaleBackgroundEvery {
		h, _ := cl.Host(names[i])
		g := workload.NewLoadGen(h, workload.LoadOptions{
			Workers: 2, Duty: 0.75, Period: 5 * time.Second,
			Seed: cfg.Seed + int64(i), Name: "bg",
		})
		g.Start()
		gens = append(gens, g)
	}

	// A couple of monitoring cycles so the registry has fresh samples.
	clock.Sleep(25 * time.Second)

	// The applications: small checksummed trees on the first scaleApps hosts.
	type appRun struct {
		app  *core.App
		tree workload.TreeConfig
		sums map[int]int64
		mu   *sync.Mutex
	}
	runs := make([]*appRun, 0, scaleApps)
	for i := 0; i < scaleApps; i++ {
		tree := workload.TreeConfig{
			Levels: 8, Rounds: 20, Seed: cfg.Seed + int64(i) + 1,
			WorkPerNode: 600, BytesPerNode: 8,
		}
		run := &appRun{tree: tree, sums: map[int]int64{}, mu: &sync.Mutex{}}
		tree.OnSum = func(round int, sum int64) {
			run.mu.Lock()
			run.sums[round] = sum
			run.mu.Unlock()
		}
		name := fmt.Sprintf("tree%d", i+1)
		app, err := sys.Launch(name, names[i], tree.Schema(hostSpeed), workload.TestTree(tree))
		if err != nil {
			return ScaleRow{}, err
		}
		run.app = app
		runs = append(runs, run)
	}
	start := clock.Now()

	// The injected overloads: extra tasks arrive on the first scaleOverloads app
	// hosts, pushing them over the Table 1 threshold so the scheduler must
	// find each a destination among hundreds of candidates.
	clock.Sleep(10 * time.Second)
	for i := 0; i < scaleOverloads; i++ {
		h, _ := cl.Host(names[i])
		g := workload.NewLoadGen(h, workload.LoadOptions{
			Workers: 3, Duty: 1.0, Period: 4 * time.Second,
			Seed: cfg.Seed + 100 + int64(i),
		})
		g.Start()
		gens = append(gens, g)
	}

	// Wait for every app, under one shared virtual deadline.
	completed := 0
	deadline := start.Add(40 * time.Minute)
	for _, run := range runs {
		if vclock.Wait(clock, deadline.Sub(clock.Now()), run.app.Settled()) != nil {
			completed++
			continue
		}
		for settled := false; !settled; {
			run.app.Process().Kill()
			settled = vclock.Wait(clock, 100*time.Millisecond, run.app.Settled()) != nil
		}
	}
	elapsed := clock.Since(start)
	reg := sys.Registry()

	row := ScaleRow{
		Hosts:               nHosts,
		Apps:                scaleApps,
		Completed:           completed,
		Correct:             true,
		Overloads:           scaleOverloads,
		VirtualSec:          elapsed.Seconds(),
		Heartbeats:          heartbeats.Load(),
		MigrationsCommitted: mreg.Counter(core.CtrMigrCommitted).Value(),
		EventsSeen:          ring.Count(),
	}
	row.MigrationsOrdered, _ = reg.Stats()
	row.Spans = mreg.SpanStats("span/")
	cfg.Metrics.Merge(mreg)
	if elapsed > 0 {
		row.HeartbeatsPerSec = float64(row.Heartbeats) / elapsed.Seconds()
	}
	for _, run := range runs {
		want := workload.ExpectedSums(run.tree)
		run.mu.Lock()
		if len(run.sums) != run.tree.Rounds {
			row.Correct = false
		}
		for round, sum := range want {
			if run.sums[round] != sum {
				row.Correct = false
			}
		}
		run.mu.Unlock()
	}
	return row, nil
}

// RenderScale prints the report: sweep sizes, app completion and checksum
// correctness, the control plane's counts and the measured migration
// phases. Two runs with the same seed produce byte-identical output.
func RenderScale(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString("Scale — sweep outcomes (deterministic per seed)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "hosts=%-4d apps=%d completed=%d correct=%v overloads=%d\n",
			r.Hosts, r.Apps, r.Completed, r.Correct, r.Overloads)
	}
	b.WriteString("\ncontrol plane\n")
	b.WriteString("hosts  virtual(s)  heartbeats  hb/s  ordered  committed  events\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %10.1f %11d %5.1f %8d %10d %7d\n",
			r.Hosts, r.VirtualSec, r.Heartbeats, r.HeartbeatsPerSec,
			r.MigrationsOrdered, r.MigrationsCommitted, r.EventsSeen)
	}
	b.WriteString("\nmigration phases, measured\n")
	for _, r := range rows {
		for _, st := range r.Spans {
			if st.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "hosts=%-4d %-14s n=%-3d p50=%-8s p95=%-8s p99=%s\n",
				r.Hosts, st.Name, st.Count, st.P50, st.P95, st.P99)
		}
	}
	return b.String()
}
