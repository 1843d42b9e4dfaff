// Command reschedvet runs the project's own static checks (package
// internal/analysis) over the module: determinism (no wall clocks or
// unseeded math/rand in sim paths), nil-receiver guards on metrics
// methods, discarded control-plane errors, blocking calls under mutexes,
// exported identifiers nothing reads, and imports against the layer table —
// plus the interprocedural call-graph passes: allocation-free //hot:path
// functions, a cycle-free global lock-order graph, and exhaustive
// event/phase/payload switches.
//
// Usage:
//
//	reschedvet [-C dir] [-checks a,b] [-v] [patterns...]
//
// Patterns default to ./... relative to the module directory; deadexport
// counts readers among the loaded packages only, so it needs the whole
// module. Findings print as file:line: [check] message; the exit status is
// 1 when any unsuppressed finding remains and 2 on a load error or an
// unknown check name. Sites suppress a finding with
// //lint:allow <check> <reason> on the offending line or the line above.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"

	"autoresched/internal/analysis"
)

func main() {
	// A run holds a few tens of MB and exits: four times the default heap
	// growth spares most of its collections.
	debug.SetGCPercent(400)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams, returning the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reschedvet", flag.ExitOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to analyse")
	checks := fs.String("checks", "", "comma-separated checks to run (default: all)")
	verbose := fs.Bool("v", false, "report suppressed-finding count and the checks run")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reschedvet [flags] [patterns...]\n\nchecks:\n")
		for _, c := range analysis.Checks() {
			fmt.Fprintf(stderr, "  %-14s %s\n", c.Name, c.Doc)
		}
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	cfg := analysis.DefaultConfig()
	if *checks != "" {
		disabled, err := disabledFor(strings.Split(*checks, ","))
		if err != nil {
			fmt.Fprintln(stderr, "reschedvet:", err)
			return 2
		}
		cfg.DisabledChecks = disabled
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, suppressed, err := analysis.Run(*dir, patterns, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "reschedvet:", err)
		return 2
	}
	for _, f := range findings {
		f.Pos.Filename = relative(*dir, f.Pos.Filename)
		fmt.Fprintln(stdout, f)
	}
	if *verbose {
		fmt.Fprintf(stderr, "reschedvet: %d finding(s), %d suppressed\n", len(findings), suppressed)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// disabledFor inverts an enabled-check list into the config's disabled
// list, refusing a name no check has.
func disabledFor(enabled []string) ([]string, error) {
	var names, disabled []string
	for _, c := range analysis.Checks() {
		names = append(names, c.Name)
	}
	for i, name := range enabled {
		if enabled[i] = strings.TrimSpace(name); !slices.Contains(names, enabled[i]) {
			return nil, fmt.Errorf("unknown check %q; valid checks: %s", enabled[i], strings.Join(names, ", "))
		}
	}
	for _, name := range names {
		if !slices.Contains(enabled, name) {
			disabled = append(disabled, name)
		}
	}
	return disabled, nil
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
