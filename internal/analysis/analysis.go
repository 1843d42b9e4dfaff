// Package analysis is the project's self-checking layer: a small static-
// analysis framework (stdlib go/ast + go/types only, no x/tools) plus the
// project-specific checks that keep the repository's invariants machine-
// enforced. The paper's runtime classifies *hosts* with soft-state rules;
// this package applies the same spirit to the *codebase* — the properties
// the evaluation depends on (byte-determinism per seed, nil-safe metrics,
// no silently dropped control-plane errors) are encoded as rules and run
// on every `make lint` / `make ci` instead of being guarded only by
// after-the-fact regression tests.
//
// Checks operate on type-checked packages (see Loader) and report
// Findings. A finding can be suppressed at the site with a reasoned
// comment:
//
//	//lint:allow <check> <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory: a suppression without one is itself reported. Package-
// level allowances (e.g. cmd/* may use the wall clock) live in Config.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String renders the finding in the canonical file:line: [check] message
// shape the CLI prints and the fixture tests match against.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Config is the per-project allowlist configuration. Patterns are package
// path patterns: "internal/vclock" matches the path segment-anchored at
// the end (so the module prefix is optional), and a trailing "/..."
// matches the package and everything below it.
type Config struct {
	// AllowClockPackages may use the time package and unseeded math/rand
	// directly: the clock abstraction itself, the real-host probes, test
	// support, and the two binaries that run against wall clocks.
	AllowClockPackages []string
	// NilGuardPackages are packages whose exported pointer-receiver
	// methods must begin with a nil-receiver guard.
	NilGuardPackages []string
	// ErrorPackages are packages whose returned errors must not be
	// discarded with `_` or a bare call.
	ErrorPackages []string
	// MutexBlockingPackages are packages whose calls are considered
	// blocking for the mutex-held check (plus channel sends, which are
	// always considered).
	MutexBlockingPackages []string
	// EnumPackages declare the named constant types (faults.Kind, job
	// states, protocol message types) whose switches the eventcase check
	// holds to exhaustive-or-default. Packages under analysis are always
	// included.
	EnumPackages []string
	// EventPayloadTypes are the concrete types carried in
	// metrics.Event.Payload; a type switch over an empty interface that
	// handles any of them must handle all of them or default.
	EventPayloadTypes []string
	// DisabledChecks turns checks off by name.
	DisabledChecks []string
}

// DefaultConfig is the repository's own policy.
func DefaultConfig() Config {
	return Config{
		AllowClockPackages: []string{
			"internal/vclock",   // the clock abstraction wraps the time package
			"internal/sysinfo",  // real-host probes read real clocks
			"internal/testutil", // test support paces grace windows on wall time
			"cmd/reschedd",      // the daemon runs against real hosts
			"cmd/bench",         // the benchmark times real work
		},
		NilGuardPackages:      []string{"internal/metrics"},
		ErrorPackages:         []string{"internal/proto", "internal/hpcm"},
		MutexBlockingPackages: []string{"net", "internal/proto"},
		EnumPackages: []string{
			"internal/faults",
			"internal/jobs",
			"internal/proto",
			"internal/hpcm",
			"internal/malleable",
			"internal/scenario",
			"internal/metrics",
		},
		EventPayloadTypes: []string{
			"internal/hpcm.MigrationEvent",
			"internal/hpcm.CheckpointEvent",
			"internal/malleable.Event",
			"internal/registry.RestartEvent",
		},
	}
}

// matchPackage reports whether the package path matches the pattern. The
// module prefix is optional in patterns, and a trailing "/..." matches
// the subtree rooted at the pattern.
func matchPackage(pattern, pkgPath string) bool {
	if base, ok := strings.CutSuffix(pattern, "/..."); ok {
		return segMatch(base, pkgPath) ||
			strings.HasPrefix(pkgPath, base+"/") ||
			strings.Contains(pkgPath, "/"+base+"/")
	}
	return segMatch(pattern, pkgPath)
}

// segMatch reports whether pkgPath equals pattern or ends in /pattern.
func segMatch(pattern, pkgPath string) bool {
	return pkgPath == pattern || strings.HasSuffix(pkgPath, "/"+pattern)
}

func matchAny(patterns []string, pkgPath string) bool {
	for _, p := range patterns {
		if matchPackage(p, pkgPath) {
			return true
		}
	}
	return false
}

// Check is one named rule. Run checks one package at a time; the
// interprocedural checks set RunModule instead, which runs once over the
// whole loaded module (call graph included).
type Check struct {
	Name      string
	Doc       string
	Run       func(cfg Config, pkg *Package) []Finding
	RunModule func(cfg Config, mod *Module) []Finding
}

// Checks returns every check, in stable order.
func Checks() []Check {
	return []Check{
		{
			Name: "determinism",
			Doc:  "sim-path code must use vclock.Clock, not the time package or unseeded math/rand",
			Run:  checkDeterminism,
		},
		{
			Name: "nilreceiver",
			Doc:  "exported pointer-receiver methods in metrics packages must begin with a nil guard",
			Run:  checkNilReceiver,
		},
		{
			Name: "discardederr",
			Doc:  "errors returned by proto/hpcm calls must not be discarded",
			Run:  checkDiscardedErr,
		},
		{
			Name: "mutexheld",
			Doc:  "no channel sends or net/proto calls while a sync.Mutex is held",
			Run:  checkMutexHeld,
		},
		{
			Name:      "deadexport",
			Doc:       "an identifier under internal/ (any exported one; an unexported func, method or field) must have a reader outside its own package's tests, and an exported field a setter in non-test code; an Option's target struct must have every field set by an option",
			RunModule: checkDeadExport,
		},
		{
			Name: "layering",
			Doc:  "a package may import only packages in lower rows of the layer table, and every module package has a row",
			Run:  checkLayering,
		},
		{
			Name:      "hotalloc",
			Doc:       "//hot:path functions (and their module-internal callees) must not allocate",
			RunModule: checkHotAlloc,
		},
		{
			Name:      "lockorder",
			Doc:       "the global lock-acquisition graph must be cycle-free (no potential deadlocks)",
			RunModule: checkLockOrder,
		},
		{
			Name:      "eventcase",
			Doc:       "switches over event kinds, phases and payload types must be exhaustive or default",
			RunModule: checkEventCase,
		},
	}
}

// CheckSuppression is the reserved check name findings about malformed
// //lint:allow comments are reported under. It cannot be suppressed.
const CheckSuppression = "suppression"

// suppression is one parsed //lint:allow comment.
type suppression struct {
	check string
	line  int // line the comment ends on
}

// suppressionsOf extracts the //lint:allow comments of a file. Malformed
// ones (no check, or no reason) are returned as findings.
func suppressionsOf(fset *token.FileSet, file *ast.File) ([]suppression, []Finding) {
	var sups []suppression
	var bad []Finding
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:allow")
			if !ok {
				continue
			}
			pos := fset.Position(c.End())
			fields := strings.Fields(text)
			if len(fields) < 2 {
				bad = append(bad, Finding{
					Pos:   fset.Position(c.Pos()),
					Check: CheckSuppression,
					Msg:   "malformed //lint:allow: want \"//lint:allow <check> <reason>\" (the reason is mandatory)",
				})
				continue
			}
			sups = append(sups, suppression{check: fields[0], line: pos.Line})
		}
	}
	return sups, bad
}

// Filter applies //lint:allow suppressions to findings: a finding is
// suppressed when a matching comment sits on its line or the line above.
// It returns the surviving findings (plus findings for malformed
// suppression comments) and the number suppressed.
func Filter(findings []Finding, pkgs []*Package) (kept []Finding, suppressed int) {
	type key struct {
		file  string
		line  int
		check string
	}
	allowed := make(map[key]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			sups, bad := suppressionsOf(pkg.Fset, file)
			kept = append(kept, bad...)
			name := pkg.Fset.Position(file.Pos()).Filename
			for _, s := range sups {
				allowed[key{name, s.line, s.check}] = true
				allowed[key{name, s.line + 1, s.check}] = true
			}
		}
	}
	for _, f := range findings {
		if f.Check != CheckSuppression && allowed[key{f.Pos.Filename, f.Pos.Line, f.Check}] {
			suppressed++
			continue
		}
		kept = append(kept, f)
	}
	sortFindings(kept)
	return kept, suppressed
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

// RunChecks applies every enabled check to every package.
func RunChecks(cfg Config, pkgs []*Package) []Finding {
	disabled := make(map[string]bool, len(cfg.DisabledChecks))
	for _, name := range cfg.DisabledChecks {
		disabled[name] = true
	}
	mod := BuildModule(pkgs)
	var findings []Finding
	for _, c := range Checks() {
		switch {
		case disabled[c.Name]:
		case c.RunModule != nil:
			findings = append(findings, c.RunModule(cfg, mod)...)
		default:
			for _, pkg := range pkgs {
				findings = append(findings, c.Run(cfg, pkg)...)
			}
		}
	}
	return findings
}

// Run loads the packages matched by patterns (relative to dir) and applies
// every enabled check, returning the unsuppressed findings, sorted by
// position, and the count of suppressed ones.
func Run(dir string, patterns []string, cfg Config) ([]Finding, int, error) {
	_, pkgs, err := NewLoader(dir, patterns)
	if err != nil {
		return nil, 0, err
	}
	findings := RunChecks(cfg, pkgs)
	kept, suppressed := Filter(findings, pkgs)
	return kept, suppressed, nil
}
