// Command reschedvet runs the project's own static checks (package
// internal/analysis) over the module: determinism (no wall clocks or
// unseeded math/rand in sim paths), nil-receiver guards on metrics
// methods, discarded control-plane errors, blocking calls under mutexes,
// dead Options fields, and imports against the layer table — plus the
// interprocedural call-graph passes: allocation-free //hot:path functions,
// a cycle-free global lock-order graph, and exhaustive event/phase/payload
// switches.
//
// Usage:
//
//	reschedvet [-C dir] [-config file] [-checks a,b] [-v] [patterns...]
//
// Patterns default to ./... relative to the module directory. Findings
// print as file:line: [check] message; the exit status is 1 when any
// unsuppressed finding remains. Sites suppress a finding with
// //lint:allow <check> <reason> on the offending line or the line above;
// the config file (JSON, default .reschedvet.json when present) replaces
// the per-check package allowlists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"autoresched/internal/analysis"
)

func main() {
	dir := flag.String("C", ".", "module directory to analyse")
	configPath := flag.String("config", "", "JSON config file (default: .reschedvet.json when present)")
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	verbose := flag.Bool("v", false, "report suppressed-finding count and the checks run")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: reschedvet [flags] [patterns...]\n\nchecks:\n")
		for _, c := range analysis.Checks() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", c.Name, c.Doc)
		}
		for _, c := range analysis.ModuleChecks() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", c.Name, c.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg, err := loadConfig(*dir, *configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reschedvet:", err)
		os.Exit(2)
	}
	if *checks != "" {
		cfg.DisabledChecks = disabledFor(strings.Split(*checks, ","))
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, suppressed, err := analysis.Run(*dir, patterns, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reschedvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		f.Pos.Filename = relative(*dir, f.Pos.Filename)
		fmt.Println(f)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "reschedvet: %d finding(s), %d suppressed\n", len(findings), suppressed)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// loadConfig returns the default policy overlaid with the JSON config
// file, when one is given or .reschedvet.json exists in dir.
func loadConfig(dir, path string) (analysis.Config, error) {
	cfg := analysis.DefaultConfig()
	if path == "" {
		candidate := filepath.Join(dir, ".reschedvet.json")
		if _, err := os.Stat(candidate); err != nil {
			return cfg, nil
		}
		path = candidate
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("%s: %v", path, err)
	}
	return cfg, nil
}

// disabledFor inverts an enabled-check list into the config's disabled
// list.
func disabledFor(enabled []string) []string {
	keep := make(map[string]bool, len(enabled))
	for _, name := range enabled {
		keep[strings.TrimSpace(name)] = true
	}
	var disabled []string
	for _, c := range analysis.Checks() {
		if !keep[c.Name] {
			disabled = append(disabled, c.Name)
		}
	}
	for _, c := range analysis.ModuleChecks() {
		if !keep[c.Name] {
			disabled = append(disabled, c.Name)
		}
	}
	return disabled
}

// relative shortens an absolute filename to dir-relative when possible.
func relative(dir, name string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(abs, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
