package experiments

import (
	"fmt"
	"strings"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/workload"
)

// OverheadResult holds the Figure 5 and Figure 6 reproduction: the observed
// workstation's series with and without the rescheduler, plus the summary
// numbers Section 5.1 quotes.
type OverheadResult struct {
	// Recorder holds the observed workstation's series from the
	// with-rescheduler arm; WithoutRecorder holds the baseline arm. Series
	// names: ws2/load1, ws2/load5, ws2/cpu, ws2/sentKBs, ws2/recvKBs.
	Recorder        *metrics.Recorder
	WithoutRecorder *metrics.Recorder
	// Metrics is the with-rescheduler arm's metrics registry; its
	// monitor/cycle_seconds histogram quantifies the per-cycle cost the
	// overhead percentages aggregate.
	Metrics *metrics.Registry

	// Figure 5 summaries.
	Load1With, Load1Without float64
	Load5With, Load5Without float64
	CPUWith, CPUWithout     float64
	Load1OverheadPct        float64
	Load5OverheadPct        float64
	CPUOverheadPct          float64
	// Figure 6 summaries (KB/s).
	SentWith, SentWithout float64
	RecvWith, RecvWithout float64
	SentOverheadPct       float64
	RecvOverheadPct       float64
}

// OverheadConfig tunes the Figure 5/6 scenario.
type OverheadConfig struct {
	Params
	// duration is the measured window; zero selects 20 virtual minutes
	// (120 samples at 10 s).
	duration time.Duration
}

// overheadGatherCost is the CPU cost of one monitoring cycle: 0.1 s of CPU
// (1% duty at a 10 s interval — the source of the paper's ~4% load
// overhead on a ~0.25 baseline).
const overheadGatherCost = 0.1 * hostSpeed

// RunOverhead reproduces Figures 5 and 6: one workstation carries the
// registry/scheduler, a second carries a baseline load (~0.25) and baseline
// communication (~6 KB/s each way); the second workstation is observed for
// 20 virtual minutes with and without the rescheduler deployed.
func RunOverhead(cfg OverheadConfig) (*OverheadResult, error) {
	if cfg.duration <= 0 {
		cfg.duration = 20 * time.Minute
	}

	res := &OverheadResult{}
	var recs [2]*metrics.Recorder
	for i, withRescheduler := range []bool{false, true} {
		rec, mreg, err := runOverheadArm(cfg, withRescheduler)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
		if withRescheduler {
			res.Metrics = mreg
		}
	}
	res.Recorder = recs[1]
	res.WithoutRecorder = recs[0]

	get := func(rec *metrics.Recorder, name string) float64 {
		return rec.Series(name).Mean()
	}
	res.Load1Without = get(recs[0], "ws2/load1")
	res.Load1With = get(recs[1], "ws2/load1")
	res.Load5Without = get(recs[0], "ws2/load5")
	res.Load5With = get(recs[1], "ws2/load5")
	res.CPUWithout = get(recs[0], "ws2/cpu")
	res.CPUWith = get(recs[1], "ws2/cpu")
	res.SentWithout = get(recs[0], "ws2/sentKBs")
	res.SentWith = get(recs[1], "ws2/sentKBs")
	res.RecvWithout = get(recs[0], "ws2/recvKBs")
	res.RecvWith = get(recs[1], "ws2/recvKBs")
	res.Load1OverheadPct = metrics.OverheadPct(res.Load1With, res.Load1Without)
	res.Load5OverheadPct = metrics.OverheadPct(res.Load5With, res.Load5Without)
	res.CPUOverheadPct = metrics.OverheadPct(res.CPUWith, res.CPUWithout)
	res.SentOverheadPct = metrics.OverheadPct(res.SentWith, res.SentWithout)
	res.RecvOverheadPct = metrics.OverheadPct(res.RecvWith, res.RecvWithout)
	return res, nil
}

// runOverheadArm runs one arm of the experiment. The returned registry is
// non-nil only for the with-rescheduler arm.
func runOverheadArm(cfg OverheadConfig, withRescheduler bool) (*metrics.Recorder, *metrics.Registry, error) {
	cl, names, err := newCluster(2)
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	clock := cl.Clock()
	rec := metrics.NewRecorder(clock)

	// Baseline load (~0.25) on the observed workstation, like the paper's
	// lightly loaded Sun Blade.
	ws2, _ := cl.Host("ws2")
	load := workload.NewLoadGen(ws2, workload.LoadOptions{
		Workers: 1, Duty: 0.25, Period: 8 * time.Second, Seed: cfg.Seed + 2,
	})
	load.Start()
	defer load.Stop()
	// Baseline communication: ~5.8 KB/s out, ~6.0 KB/s in.
	out := workload.NewCommLoad(clock, cl.Net(), "ws2", "ws1",
		workload.CommOptions{Rate: 5.8e3, Chunk: 58e3})
	in := workload.NewCommLoad(clock, cl.Net(), "ws1", "ws2",
		workload.CommOptions{Rate: 6.0e3, Chunk: 60e3})
	out.Start()
	in.Start()
	defer out.Stop()
	defer in.Stop()

	var sys *core.System
	var mreg *metrics.Registry
	if withRescheduler {
		mreg = metrics.NewRegistry()
		sys, err = core.New(core.Options{
			Cluster:      cl,
			GatherCost:   overheadGatherCost,
			RegistryHost: names[0],
			Metrics:      mreg,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := sys.AddNodes(names...); err != nil {
			return nil, nil, err
		}
		defer sys.Stop()
	}

	// Let load averages settle before measuring.
	clock.Sleep(3 * time.Minute)
	s := newSampler(rec, cl, "ws2", "ws2", sampleInterval)
	clock.Sleep(cfg.duration)
	s.Stop()
	return rec, mreg, nil
}

// Render prints the Figure 5/6 reproduction as text.
func (r *OverheadResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — rescheduler overhead (observed workstation)\n")
	fmt.Fprintf(&b, "  1-min load average: %.3f with, %.3f without  => overhead %.1f%%\n",
		r.Load1With, r.Load1Without, r.Load1OverheadPct)
	fmt.Fprintf(&b, "  5-min load average: %.3f with, %.3f without  => overhead %.1f%%\n",
		r.Load5With, r.Load5Without, r.Load5OverheadPct)
	fmt.Fprintf(&b, "  CPU utilisation:    %.2f%% with, %.2f%% without => overhead %.1f%%\n",
		r.CPUWith, r.CPUWithout, r.CPUOverheadPct)
	fmt.Fprintf(&b, "Figure 6 — communication\n")
	fmt.Fprintf(&b, "  send: %.2f KB/s with, %.2f KB/s without => overhead %.1f%%\n",
		r.SentWith, r.SentWithout, r.SentOverheadPct)
	fmt.Fprintf(&b, "  recv: %.2f KB/s with, %.2f KB/s without => overhead %.1f%%\n",
		r.RecvWith, r.RecvWithout, r.RecvOverheadPct)
	if r.Recorder != nil {
		fmt.Fprintf(&b, "  load1 (with):    %s\n", metrics.Sparkline(r.Recorder.Series("ws2/load1")))
	}
	if r.WithoutRecorder != nil {
		fmt.Fprintf(&b, "  load1 (without): %s\n", metrics.Sparkline(r.WithoutRecorder.Series("ws2/load1")))
	}
	if r.Metrics != nil {
		if h := r.Metrics.Histogram(monitor.MetricCycleSeconds); h.Count() > 0 {
			fmt.Fprintf(&b, "  monitoring cycle (virtual): n=%d p50=%s p95=%s p99=%s\n",
				h.Count(), metrics.FormatSeconds(h.Quantile(0.50)),
				metrics.FormatSeconds(h.Quantile(0.95)), metrics.FormatSeconds(h.Quantile(0.99)))
		}
	}
	return b.String()
}
