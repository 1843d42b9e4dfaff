package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"autoresched/internal/metrics"
)

// The run-dir report writer. A fleet run materialises as one directory per
// scenario — the scenario itself, its outcome, and the event-schedule
// digest — plus a fleet-level summary.json. Files builds the whole file set
// as an in-memory map first, so the on-disk rundir, the flattened golden
// rendering and the regression test all see the identical bytes.

// Summary is the fleet-level roll-up written as summary.json.
type Summary struct {
	Seed int64 `json:"seed"`
	Runs int   `json:"runs"`
	// Drained counts runs whose whole queue completed inside the cap.
	Drained       int `json:"drained"`
	JobsTotal     int `json:"jobs_total"`
	JobsCompleted int `json:"jobs_completed"`
	Admissions    int `json:"admissions"`
	// Preemptions aggregates planner evictions by mode across the fleet.
	Preemptions map[string]int `json:"preemptions,omitempty"`
	// Migrations aggregates executed migrations by modeled mode.
	Migrations    map[string]int `json:"migrations,omitempty"`
	Resizes       int            `json:"resizes,omitempty"`
	ChurnRequeues int            `json:"churn_requeues,omitempty"`
	ChurnShrinks  int            `json:"churn_shrinks,omitempty"`
	// ByPolicy counts runs per admission policy, a quick skew check on the
	// generator.
	ByPolicy map[string]int `json:"by_policy"`
	// Downtime and MigrationTotal summarise the merged fleet histograms
	// (every freeze window and end-to-end migration across all runs).
	Downtime       Quantiles `json:"downtime"`
	MigrationTotal Quantiles `json:"migration_total"`
}

// Summarize rolls a fleet of results into one Summary.
func Summarize(seed int64, results []Result) Summary {
	sum := Summary{
		Seed:        seed,
		Runs:        len(results),
		Preemptions: map[string]int{},
		Migrations:  map[string]int{},
		ByPolicy:    map[string]int{},
	}
	down := metrics.NewHistogram()
	migr := metrics.NewHistogram()
	for _, r := range results {
		o := r.Outcome
		if o.Drained {
			sum.Drained++
		}
		sum.JobsTotal += o.JobsTotal
		sum.JobsCompleted += o.JobsCompleted
		sum.Admissions += o.Admissions
		for mode, n := range o.Preemptions {
			sum.Preemptions[mode] += n
		}
		for mode, n := range o.Migrations {
			sum.Migrations[mode] += n
		}
		sum.Resizes += o.Resizes
		sum.ChurnRequeues += o.ChurnRequeues
		sum.ChurnShrinks += o.ChurnShrinks
		sum.ByPolicy[r.Scenario.Policy]++
		down.Merge(r.Metrics.Histogram("fleet/downtime_seconds"))
		migr.Merge(r.Metrics.Histogram("fleet/migration_seconds"))
	}
	sum.Downtime = histQuantiles(down)
	sum.MigrationTotal = histQuantiles(migr)
	return sum
}

// RunName is the rundir subdirectory of result i: run-000-s1-r000, ...
func RunName(i int, r Result) string {
	return fmt.Sprintf("run-%03d-%s", i, r.Scenario.Name)
}

// Files renders the complete rundir file set for one fleet: relative path
// -> content. Keys are logical slash-separated paths (path.Join, never the
// OS separator) so the flattened golden rendering is identical on every
// platform; WriteRunDir converts to OS paths at the filesystem boundary.
// Deterministic: encoding/json sorts map keys and every recorded quantity
// is a pure function of the seed.
func Files(seed int64, results []Result) (map[string][]byte, error) {
	out := make(map[string][]byte, 3*len(results)+1)
	put := func(path string, v any) error {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("rundir: encoding %s: %w", path, err)
		}
		out[path] = append(b, '\n')
		return nil
	}
	for i, r := range results {
		dir := RunName(i, r)
		if err := put(path.Join(dir, "scenario.json"), r.Scenario); err != nil {
			return nil, err
		}
		if err := put(path.Join(dir, "outcome.json"), r.Outcome); err != nil {
			return nil, err
		}
		if len(r.Spans) > 0 {
			if err := put(path.Join(dir, "migrations.json"), r.Spans); err != nil {
				return nil, err
			}
		}
		if len(r.Resizes) > 0 {
			if err := put(path.Join(dir, "resizes.json"), r.Resizes); err != nil {
				return nil, err
			}
		}
		out[path.Join(dir, "schedule.txt")] = []byte(strings.Join(r.Schedule, "\n") + "\n")
	}
	if err := put("summary.json", Summarize(seed, results)); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteRunDir writes the fleet's file set under dir, creating run
// subdirectories as needed.
func WriteRunDir(dir string, seed int64, results []Result) error {
	files, err := Files(seed, results)
	if err != nil {
		return err
	}
	for rel, content := range files {
		full := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, content, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Flatten renders the fleet's file set as one text blob: every rundir file
// in path order under a banner line. This is the golden format — a single
// committed file per pinned seed whose diff reads as rundir diffs.
func Flatten(seed int64, results []Result) (string, error) {
	files, err := Files(seed, results)
	if err != nil {
		return "", err
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "=== %s ===\n", p)
		b.Write(files[p])
	}
	return b.String(), nil
}
