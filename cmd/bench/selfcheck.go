package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// Every measured run is a process of its own: peak_rss_mb is a high-water
// mark of the process, and a second workload in the same process would
// inherit the first one's heap.

// child runs this binary on one workload and parses its result line.
func child(name string, seed int64, seconds int, traced bool) (outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outcome
	if jerr := json.Unmarshal(lines[len(lines)-1], &out); jerr != nil {
		return outcome{}, fmt.Errorf("%s seed %d: no result line (%v): %v", name, seed, err, jerr)
	}
	if err != nil {
		return out, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	return out, nil
}

// runAll runs every workload untraced and traced and prints every metric by
// name with its unit.
func runAll(seed int64, seconds int) error {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := child(w.name, seed, seconds, traced)
			if err != nil {
				return err
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			fmt.Printf("%s seed %d trace %v: ops_attempted %d ops_failed %d\n", w.name, seed, traced, out.Attempted, out.Failed)
			for _, def := range defs {
				if m := out.Metrics[def.name]; !traced || m.Value != 0 {
					fmt.Printf("  %-28s %14.4f %s\n", def.name, m.Value, m.Unit)
				}
			}
		}
	}
	return nil
}

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck is the A/A check that sets the bounds in BENCHMARK.json: two
// sets of n runs of every workload from this one binary, alternating, each
// run on a seed of its own as the acceptance check does. For every workload
// and end-to-end metric it prints both medians, how much worse the second is
// than the first, each set's quartile spread, and the bound. A gap above the
// bound fails the check; the spreads are printed for the reader, because the
// quartiles of five values are little more than their extremes.
func selfCheck(n, seconds int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the self-check reads its bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			seed := int64(1 + i + set*n)
			for _, w := range workloads {
				out, err := child(w.name, seed, seconds, false)
				if err != nil {
					return err
				}
				for name, m := range out.Metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "run %d set %c %s seed %d done\n", i+1, 'A'+rune(set), w.name, seed)
			}
		}
	}

	failed := 0
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound")
	for _, w := range workloads {
		for _, def := range mf.EndToEnd {
			k := key{w.name, def.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			gap := 0.0
			if a != 0 {
				gap = (b - a) / a
				if def.Better == "higher" {
					gap = -gap
				}
			}
			sa, sb := quartileSpread(sets[0][k]), quartileSpread(sets[1][k])
			verdict := ""
			if gap > def.Bound {
				verdict = "  EXCEEDS BOUND"
				failed++
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				w.name, def.Name, a, b, 100*gap, 100*sa, 100*sb, 100*def.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs exceed their bound", failed)
	}
	return nil
}
