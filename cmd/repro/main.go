// Command repro regenerates the paper's evaluation: every figure and table
// of Section 5 (plus the Table 1 semantics and the Figure 3/4 rule files,
// which are executable artifacts elsewhere in the repository).
//
// Usage:
//
//	repro -exp all            # everything
//	repro -exp fig5           # rescheduler overhead (load / CPU)
//	repro -exp fig6           # rescheduler overhead (communication)
//	repro -exp fig7           # efficiency timeline (CPU)
//	repro -exp fig8           # efficiency timeline (communication)
//	repro -exp table1         # system state semantics
//	repro -exp table2         # comparison of policies
//	repro -exp chaos          # seeded fault-injection survival (not in "all")
//	repro -exp scale          # 64/256/512-host sweeps under churn (not in "all")
//	repro -exp livemig        # precopy vs stop-and-copy downtime sweep
//	repro -exp malleable      # elastic vs migrate-only vs fixed under churn (not in "all")
//	repro -exp multijob       # job-queue policy shoot-out (not in "all")
//	repro -exp fleet -seed 1 -runs 100   # generated scenario fleet (not in "all")
//	repro -exp fleet -rundir fleet_runs  # also write per-run report dirs
//	repro -exp scale -hosts 64,128   # custom sweep sizes
//	repro -exp chaos -metrics run.json   # also dump the metrics registry
//
// Every simulated experiment runs on a discrete-event clock (vclock.Auto),
// so each report is byte-identical across runs of one -seed, measured
// timings and phase quantiles included. Chaos, scale and malleable are
// excluded from "all" to keep that target's runtime bounded.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"autoresched/internal/experiments"
	"autoresched/internal/metrics"
	"autoresched/internal/rules"
	"autoresched/internal/scenario"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5|fig6|fig7|fig8|table1|table2|chaos|scale|livemig|malleable|multijob|fleet|all")
	seed := flag.Int64("seed", 1, "workload seed")
	runs := flag.Int("runs", 50, "fleet experiment: scenarios to generate")
	runDir := flag.String("rundir", "", "fleet experiment: directory to write per-run reports and summary.json")
	hosts := flag.String("hosts", "", "scale experiment sweep sizes, comma-separated (default 64,256,512)")
	series := flag.Bool("series", false, "also print the sampled series tables")
	csvDir := flag.String("csv", "", "directory to write the sampled series as CSV files")
	metricsPath := flag.String("metrics", "", "write the run's metrics registry (counters, gauges, histograms) as JSON to this file")
	flag.Parse()

	// The run-wide metrics accumulator: experiments merge their per-run
	// registries here, and -metrics snapshots it at exit.
	mreg := metrics.NewRegistry()
	params := experiments.Params{Seed: *seed, Metrics: mreg}
	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table1") {
		ran = true
		printTable1()
	}
	if want("fig5") || want("fig6") {
		ran = true
		res, err := experiments.RunOverhead(experiments.OverheadConfig{Params: params})
		fatal(err)
		mreg.Merge(res.Metrics)
		fmt.Print(res.Render())
		if *series {
			fmt.Println(metrics.Table(res.Recorder.Start(),
				res.Recorder.Series("ws2/load1"),
				res.Recorder.Series("ws2/cpu"),
				res.Recorder.Series("ws2/sentKBs"),
				res.Recorder.Series("ws2/recvKBs")))
		}
		writeCSV(*csvDir, "fig5_with.csv", res.Recorder,
			"ws2/load1", "ws2/load5", "ws2/cpu", "ws2/sentKBs", "ws2/recvKBs")
		writeCSV(*csvDir, "fig5_without.csv", res.WithoutRecorder,
			"ws2/load1", "ws2/load5", "ws2/cpu", "ws2/sentKBs", "ws2/recvKBs")
		fmt.Println()
	}
	if want("fig7") || want("fig8") {
		ran = true
		res, err := experiments.RunEfficiency(experiments.EfficiencyConfig{Params: params})
		fatal(err)
		fmt.Print(res.Render())
		if *series {
			fmt.Println(metrics.Table(res.Recorder.Start(),
				res.Recorder.Series("ws1/cpu"),
				res.Recorder.Series("ws2/cpu"),
				res.Recorder.Series("ws1/sentKBs"),
				res.Recorder.Series("ws2/recvKBs")))
		}
		writeCSV(*csvDir, "fig7_fig8.csv", res.Recorder,
			"ws1/cpu", "ws2/cpu", "ws1/load1", "ws2/load1",
			"ws1/sentKBs", "ws1/recvKBs", "ws2/sentKBs", "ws2/recvKBs")
		fmt.Println()
	}
	if want("table2") {
		ran = true
		rows, err := experiments.RunPolicies(params)
		fatal(err)
		fmt.Print(experiments.RenderPolicies(rows))
		fmt.Println()
	}
	if *exp == "chaos" {
		ran = true
		rows, err := experiments.RunChaos(experiments.ChaosConfig{Params: params})
		fatal(err)
		fmt.Print(experiments.RenderChaos(rows))
		fmt.Println()
	}
	if *exp == "scale" {
		ran = true
		rows, err := experiments.RunScale(experiments.ScaleConfig{Params: params, Hosts: parseHosts(*hosts)})
		fatal(err)
		fmt.Print(experiments.RenderScale(rows))
		fmt.Println()
	}
	if *exp == "malleable" {
		ran = true
		rows, err := experiments.RunMalleable(params)
		fatal(err)
		fmt.Print(experiments.RenderMalleable(rows))
		fmt.Println()
	}
	if *exp == "multijob" {
		ran = true
		rows := experiments.RunMultijob(params)
		fmt.Print(experiments.RenderMultijob(rows))
		fmt.Println()
	}
	if *exp == "fleet" {
		ran = true
		results := scenario.RunFleet(scenario.DefaultSpace(), *seed, *runs)
		fmt.Print(scenario.RenderFleet(*seed, results))
		fmt.Println()
		for _, r := range results {
			mreg.Merge(r.Metrics)
		}
		if *runDir != "" {
			fatal(scenario.WriteRunDir(*runDir, *seed, results))
			fmt.Printf("wrote %d run dirs and summary.json under %s\n", len(results), *runDir)
		}
	}
	if want("livemig") {
		ran = true
		rows := experiments.RunLivemig(params)
		fmt.Print(experiments.RenderLivemig(rows))
		fmt.Println()
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		fatal(err)
		fatal(mreg.WriteJSON(f))
		fatal(f.Close())
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsPath)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func printTable1() {
	var b strings.Builder
	b.WriteString("Table 1 — system state description\n")
	b.WriteString("state       loaded  migrate-in  migrate-out\n")
	for _, s := range []rules.State{rules.Free, rules.Busy, rules.Overloaded} {
		fmt.Fprintf(&b, "%-11s %-7v %-11v %v\n",
			s, s.Loaded(), s.AcceptsMigration(), s.WantsOffload())
	}
	b.WriteString("\n")
	fmt.Print(b.String())
}

// parseHosts turns "-hosts 64,256" into sweep sizes; empty keeps the
// experiment's default sweep.
func parseHosts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad -hosts value %q", part))
		}
		out = append(out, n)
	}
	return out
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// writeCSV exports named series from a recorder into dir/name (no-op when
// no -csv directory was given).
func writeCSV(dir, name string, rec *metrics.Recorder, seriesNames ...string) {
	if dir == "" || rec == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	fatal(err)
	defer f.Close()
	series := make([]*metrics.Series, 0, len(seriesNames))
	for _, n := range seriesNames {
		series = append(series, rec.Series(n))
	}
	fatal(metrics.WriteCSV(f, rec.Start(), series...))
	fmt.Printf("  wrote %s\n", filepath.Join(dir, name))
}
