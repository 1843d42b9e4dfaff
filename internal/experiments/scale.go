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
	"autoresched/internal/registry"
	"autoresched/internal/workload"
)

// ScaleConfig tunes the scale experiment: the paper's 64-host topology plus
// larger sweeps, each running the checksummed tree computation under churn —
// background load on a slice of the cluster and injected overloads on the
// app hosts — while the control plane's cost is measured: wall-clock
// placement latency, heartbeat throughput through the status batcher, and
// migrations completed.
type ScaleConfig struct {
	Params
	// Hosts lists the sweep sizes; empty selects 64, 256, 512.
	Hosts []int
	// Metrics, when set, accumulates every sweep's metrics registry
	// (histograms merged bucket-wise) for a run-wide snapshot — the
	// cmd/repro -metrics flag feeds from here.
	Metrics *metrics.Registry
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

// ScaleRow is one sweep's outcome. Hosts, Apps, Completed, Correct and
// Overloads depend only on the seed; the measurements below the line carry
// scheduling jitter (wall-clock latency, load-dependent migration counts)
// and are reported as approximate.
type ScaleRow struct {
	Hosts     int
	Apps      int
	Completed int  // apps settled before the virtual deadline
	Correct   bool // every completed app's checksums matched
	Overloads int

	VirtualSec          float64 // approximate
	Heartbeats          int64   // status reports leaving the monitors; approximate
	HeartbeatsPerSec    float64 // per virtual second; approximate
	BatchFlushes        int64   // batched deliveries into the registry; approximate
	MigrationsOrdered   int     // approximate (load-dependent decisions)
	MigrationsCommitted int64   // approximate
	EventsSeen          int     // unified-sink events captured; approximate
	DecisionMicros      float64 // mean wall-clock placement latency; approximate
	// Spans holds the per-phase migration-latency summaries. At scale the
	// migration counts themselves are load-dependent, so the whole slice —
	// counts and quantiles — is approximate.
	Spans []metrics.SpanStat
}

func (cfg ScaleConfig) withScaleDefaults() ScaleConfig {
	if cfg.Scale <= 0 {
		cfg.Scale = 1000
	}
	cfg.Params = cfg.Params.withDefaults()
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = []int{64, 256, 512}
	}
	return cfg
}

// countingReporter wraps each host's reporter to count the status reports
// the monitors emit — the heartbeat throughput the registry (behind the
// batcher) must absorb. One counter is shared by every host's wrapper.
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
	cl, names, err := newCluster(cfg.Params, nHosts)
	if err != nil {
		return ScaleRow{}, err
	}
	clock := cl.Clock()
	mreg := metrics.NewRegistry()
	ring := &metrics.Ring{Cap: 4096}
	heartbeats := &atomic.Int64{}
	sys, err := core.New(core.Options{
		Cluster:          cl,
		MonitorInterval:  sampleInterval,
		Warmup:           2,
		Cooldown:         10 * time.Minute,
		ChunkBytes:       8 << 20,
		BatchStatusEvery: sampleInterval / 2,
		Metrics:          mreg,
		Events:           ring,
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
	clock.Sleep(20 * time.Second)
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
	watchdog := clock.NewTimer(40 * time.Minute)
	for _, run := range runs {
		select {
		case <-run.app.Settled():
			completed++
		case <-watchdog.C:
			for settled := false; !settled; {
				run.app.Process().Kill()
				select {
				case <-run.app.Settled():
					settled = true
				case <-clock.After(100 * time.Millisecond):
				}
			}
		}
	}
	watchdog.Stop()
	elapsed := clock.Since(start)

	// Wall-clock placement latency at this host count, measured against the
	// live registry (its sets still index every host).
	reg := sys.Registry()
	const probes = 200
	wallStart := time.Now() //lint:allow determinism deliberate wall-clock probe (approximate section of the report)
	for i := 0; i < probes; i++ {
		reg.FirstFit(names[0], registry.ProcInfo{Host: names[0], PID: 1})
	}
	decisionMicros := float64(time.Since(wallStart).Microseconds()) / probes //lint:allow determinism deliberate wall-clock probe

	row := ScaleRow{
		Hosts:               nHosts,
		Apps:                scaleApps,
		Completed:           completed,
		Correct:             true,
		Overloads:           scaleOverloads,
		VirtualSec:          elapsed.Seconds(),
		Heartbeats:          heartbeats.Load(),
		BatchFlushes:        mreg.Counter(registry.CtrBatchFlushes).Value(),
		MigrationsCommitted: mreg.Counter(core.CtrMigrCommitted).Value(),
		EventsSeen:          ring.Count(),
		DecisionMicros:      decisionMicros,
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

// RenderScaleDeterministic prints the seed-reproducible part of the report:
// sweep sizes, app completion and checksum correctness. Two runs with the
// same seed produce identical output.
func RenderScaleDeterministic(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString("Scale — sweep outcomes (deterministic per seed)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "hosts=%-4d apps=%d completed=%d correct=%v overloads=%d\n",
			r.Hosts, r.Apps, r.Completed, r.Correct, r.Overloads)
	}
	return b.String()
}

// RenderScale prints the full report: the deterministic section plus the
// control-plane measurements, which carry scheduling and wall-clock jitter.
func RenderScale(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString(RenderScaleDeterministic(rows))
	b.WriteString("\ncontrol plane (approximate)\n")
	b.WriteString("hosts  virtual(s)  heartbeats  hb/s  batches  ordered  committed  events  decision(us)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %10.1f %11d %5.1f %8d %8d %10d %7d %13.1f\n",
			r.Hosts, r.VirtualSec, r.Heartbeats, r.HeartbeatsPerSec, r.BatchFlushes,
			r.MigrationsOrdered, r.MigrationsCommitted, r.EventsSeen, r.DecisionMicros)
	}
	b.WriteString("\nmigration phases, measured (approximate: counts are load-dependent, durations carry wall jitter x scale)\n")
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
