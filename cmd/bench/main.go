// Command bench is the repository's end-to-end benchmark: six named
// workloads driving the real layers through their exported functions on the
// real clock, eight end-to-end metrics per workload, and a separate traced
// run that breaks each op down by layer. BENCHMARK.json at the repository
// root is its manifest; README.md in this directory says why each workload
// and metric exists.
//
//	go run ./cmd/bench -workload hb_soft -seed 1          # one workload, end-to-end metrics
//	go run ./cmd/bench -workload hb_soft -seed 1 -trace 1 # the same, per-layer metrics
//	go run ./cmd/bench -workload all -seed 1              # every workload, both runs
//	go run ./cmd/bench -aa 5                              # A/A self-check against the bounds
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// workloads is the workload table, in the order of BENCHMARK.json.
var workloads = []workloadDef{
	{name: "hb_soft", timedPerSec: 20000, warmup: 20000, tail: 99, build: buildHB(false)},
	{name: "hb_durable", timedPerSec: 12000, warmup: 12000, tail: 99.9, build: buildHB(true)},
	{name: "recover", timedPerSec: 12, warmup: 8, tail: 90, build: buildRecover},
	{name: "admit_backlog", timedPerSec: 2400, warmup: 3600, tail: 99, build: buildAdmit},
	{name: "migrate", timedPerSec: 32, warmup: 48, tail: 95, build: buildMigrate(false)},
	{name: "migrate_live", timedPerSec: 24, warmup: 48, tail: 95, build: buildMigrate(true)},
}

// metricDef is one metric of the manifest.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer lists the per-layer metrics every traced run reports; a layer a
// workload does not exercise reports 0, which is its predicted "no change".
var perLayer = []metricDef{
	{"sysinfo.gather_us", "us", "lower"},
	{"rules.evaluate_us", "us", "lower"},
	{"monitor.cycle_self_us", "us", "lower"},
	{"proto.encode_us", "us", "lower"},
	{"proto.decode_us", "us", "lower"},
	{"proto.wire_bytes", "B", "lower"},
	{"proto.roundtrip_self_us", "us", "lower"},
	{"registry.ingest_self_us", "us", "lower"},
	{"registry.state_moves", "count", "higher"},
	{"persist.append_us", "us", "lower"},
	{"persist.appends_per_op", "count", "lower"},
	{"persist.wal_bytes_per_op", "B", "lower"},
	{"persist.snapshots", "count", "lower"},
	{"persist.snapshot_bytes", "B", "lower"},
	{"registry.snapshot_stall_ms", "ms", "lower"},
	{"persist.open_ms", "ms", "lower"},
	{"persist.load_snapshot_ms", "ms", "lower"},
	{"persist.read_since_ms", "ms", "lower"},
	{"persist.replayed_records", "count", "lower"},
	{"registry.bootstrap_self_ms", "ms", "lower"},
	{"jobs.queue_us", "us", "lower"},
	{"jobs.plan_us", "us", "lower"},
	{"jobs.admissions_per_cycle", "count", "higher"},
	{"jobs.evictions_per_cycle", "count", "lower"},
	{"registry.eligible_us", "us", "lower"},
	{"registry.place_us", "us", "lower"},
	{"registry.commit_us", "us", "lower"},
	{"hpcm.poll_wait_ms", "ms", "lower"},
	{"hpcm.init_ms", "ms", "lower"},
	{"hpcm.transfer_ms", "ms", "lower"},
	{"hpcm.restore_ms", "ms", "lower"},
	{"hpcm.downtime_ms", "ms", "lower"},
	{"hpcm.eager_bytes", "B", "lower"},
	{"hpcm.lazy_bytes", "B", "lower"},
	{"livemig.precopy_rounds", "count", "lower"},
	{"livemig.pages_resent", "count", "lower"},
	{"livemig.precopy_ms", "ms", "lower"},
	{"livemig.freeze_ms", "ms", "lower"},
	{"mpi.sends_per_op", "count", "lower"},
	{"mpi.bytes_per_op", "B", "lower"},
	{"mpi.transport_wait_us", "us", "lower"},
	{"workload.sweep_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
	{"bench.slowness", "ratio", "lower"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outMetric and outcome are the result line's shape.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "run length the fixed op counts are scaled to")
	trace := flag.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
	spansOut := flag.String("spans", "", "with -trace 1: write every span to this file when the run ends")
	aa := flag.Int("aa", 0, "A/A self-check: two alternating sets of N runs of every workload")
	flag.Parse()

	var err error
	switch {
	case *aa > 0:
		err = selfCheck(*aa, *seconds)
	case *name == "all":
		err = runAll(*seed, *seconds)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *spansOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its metrics by
// name, then the result line.
func runOne(name string, seed int64, seconds int, traced bool, spansOut string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	// Two driver goroutines at most, on the 2 cores of the reference box.
	runtime.GOMAXPROCS(2)
	// Stores live under the working directory: the benchmark reads and
	// writes nothing outside the checkout it runs in.
	scratch, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var tr *tracer
	defs := endToEnd
	if traced {
		tr = newTracer(1 << 20)
		defs = perLayer
	}
	res, err := runWorkload(w, seed, seconds, tr, &calibrator{passes: 5}, scratch)
	if err != nil {
		return err
	}
	if traced && spansOut != "" {
		if err := tr.write(spansOut); err != nil {
			return err
		}
	}

	out := outcome{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]outMetric{}}
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", w.name, seed, seconds, traced)
	for _, def := range defs {
		v := res.metrics[def.name]
		out.Metrics[def.name] = outMetric{Value: v, Unit: def.unit}
		note := ""
		if def.name == "op_tail_ms" {
			note = fmt.Sprintf("  (p%g of %d samples)", res.tailPct, res.samples)
		}
		fmt.Printf("  %-28s %14.4f %s%s\n", def.name, v, def.unit, note)
	}
	fmt.Printf("  ops_attempted %d ops_failed %d; machine slowness %.3f (times are at nominal speed)\n", res.attempted, res.failed, res.slow)
	if res.firstErr != nil {
		fmt.Printf("  first error: %v\n", res.firstErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct {
		return fmt.Errorf("%s: %d of %d ops failed or an output check failed: %v", w.name, res.failed, res.attempted, res.firstErr)
	}
	return nil
}
