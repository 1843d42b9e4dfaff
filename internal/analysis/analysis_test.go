package analysis

import (
	"fmt"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// moduleRoot walks up from the test's working directory to the directory
// holding go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatalf("no go.mod above test directory")
		}
		dir = parent
	}
}

// The module-wide load (go list -export -deps + type-check) is the
// expensive step, so every test shares one loader. The fixture packages
// type-check against the same dependency universe.
var (
	loadOnce sync.Once
	loader   *Loader
	modPkgs  []*Package
	loadErr  error
)

func sharedLoader(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	loadOnce.Do(func() {
		root := moduleRoot(t)
		loader, modPkgs, loadErr = NewLoader(root, []string{"./..."})
	})
	if loadErr != nil {
		t.Fatalf("loading module: %v", loadErr)
	}
	return loader, modPkgs
}

// loadDir loads the .go files in dir as the package importPath, the way
// NewLoader loads a listed one: the non-test files with the in-package
// tests as its test variant, and the files of a package p_test as its
// external test, against that variant. The synthetic import path lets a
// fixture impersonate any package the config treats specially. An import
// of a deps package's path resolves to it, else to the module's export
// data.
func (l *Loader) loadDir(dir, importPath string, deps ...*Package) (*Package, error) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	if len(paths) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	var files, tests, xtests []string
	for _, path := range paths {
		f, err := parser.ParseFile(l.fset, path, nil, parser.PackageClauseOnly)
		switch {
		case err != nil:
			return nil, err
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtests = append(xtests, path)
		case strings.HasSuffix(path, "_test.go"):
			tests = append(tests, path)
		default:
			files = append(files, path)
		}
	}
	imp := overlay{l.imp, make(map[string]*types.Package)}
	for _, dep := range deps {
		imp.pkgs[dep.Path] = dep.Types
	}
	pkg, err := l.load(importPath, files, tests, imp)
	if err == nil && len(xtests) > 0 {
		imp.pkgs[importPath] = pkg.Types
		pkg.XTest, err = l.load(importPath+"_test", xtests, nil, imp)
	}
	return pkg, err
}

// overlay resolves the paths of pkgs to them, and the rest through base.
type overlay struct {
	base types.Importer
	pkgs map[string]*types.Package
}

func (o overlay) Import(path string) (*types.Package, error) {
	if p, ok := o.pkgs[path]; ok {
		return p, nil
	}
	return o.base.Import(path)
}

// TestModuleClean is the gate the CI target depends on: the repository's
// own packages must produce zero unsuppressed findings under the default
// config.
func TestModuleClean(t *testing.T) {
	_, pkgs := sharedLoader(t)
	findings := RunChecks(DefaultConfig(), pkgs)
	kept, _ := Filter(findings, pkgs)
	for _, f := range kept {
		t.Errorf("unsuppressed finding: %s", f)
	}
}

// fixtures maps each testdata package to the import path it impersonates.
// The registry entry is the acceptance case: a time.Now() added to
// internal/registry must be reported.
var fixtures = []struct {
	dir        string
	importPath string
}{
	{"registry", "autoresched/internal/registry"},
	{"livemig", "autoresched/internal/livemig"},
	{"malleable", "autoresched/internal/malleable"},
	{"jobs", "autoresched/internal/jobs"},
	{"scenario", "autoresched/internal/scenario"},
	{"persist", "autoresched/internal/persist"},
	{"allowed", "autoresched/cmd/reschedd"},
	{"repro", "autoresched/cmd/repro"},
	{"nilrecv", "autoresched/internal/metrics"},
	{"discard", "example/discard"},
	{"mutex", "example/mutexdemo"},
	{"hotalloc", "example/hotalloc"},
	{"lockorder", "example/lockorder"},
	{"eventcase", "example/eventcase"},
	{"layering", "autoresched/internal/sim"},
	{"unlisted", "autoresched/internal/unlisted"},
}

// fixtureConfig is the default policy without deadexport, which counts
// readers across the whole loaded set: on one fixture alone it would report
// every exported name. TestDeadExport runs it on its own fixture.
func fixtureConfig() Config {
	cfg := DefaultConfig()
	cfg.DisabledChecks = []string{"deadexport"}
	return cfg
}

func TestFixtures(t *testing.T) {
	l, _ := sharedLoader(t)
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			pkg, err := l.loadDir(filepath.Join("testdata", "src", fx.dir), fx.importPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			findings := RunChecks(fixtureConfig(), []*Package{pkg})
			kept, _ := Filter(findings, []*Package{pkg})
			matchWants(t, kept, pkg)
		})
	}
}

// TestDeadExport runs every check on the deadexport fixture together with
// user/, the other package whose code and test are among the fixture's
// readers, and hpcm/, which holds a type on the keep table. user/ imports a
// second copy of the fixture, the way a module package imports another
// through export data while the loader checks that one from source.
func TestDeadExport(t *testing.T) {
	l, _ := sharedLoader(t)
	dir := filepath.Join("testdata", "src", "deadexport")
	load := func(dir, importPath string, deps ...*Package) *Package {
		pkg, err := l.loadDir(dir, importPath, deps...)
		if err != nil {
			t.Fatalf("loading fixture: %v", err)
		}
		return pkg
	}
	twin := load(dir, "autoresched/internal/scenario")
	pkgs := []*Package{
		load(dir, "autoresched/internal/scenario"),
		load(filepath.Join(dir, "user"), "example/user", twin),
		load(filepath.Join(dir, "hpcm"), "autoresched/internal/hpcm"),
	}
	kept, _ := Filter(RunChecks(DefaultConfig(), pkgs), pkgs)
	matchWants(t, kept, pkgs...)
}

// want is one expectation parsed from a `// want `+"`regex`"+` comment,
// anchored to the line the comment sits on.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// matchWants checks findings against the fixtures' want comments in both
// directions: every want must be matched by a finding on its line, and
// every finding must be expected by a want on its line.
func matchWants(t *testing.T, findings []Finding, pkgs ...*Package) {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pat, ok := parseWant(t, c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &want{
						file: pos.Filename,
						line: pos.Line,
						re:   regexp.MustCompile(pat),
					})
				}
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.String()) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q, no matching finding", w.file, w.line, w.re)
		}
	}
}

// parseWant extracts the pattern of a `// want "..."` (or backquoted)
// comment; non-want comments return ok=false.
func parseWant(t *testing.T, comment string) (string, bool) {
	t.Helper()
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(comment, "//")), "want ")
	if !ok {
		return "", false
	}
	rest = strings.TrimSpace(rest)
	if len(rest) >= 2 && rest[0] == '`' && rest[len(rest)-1] == '`' {
		return rest[1 : len(rest)-1], true
	}
	s, err := strconv.Unquote(rest)
	if err != nil {
		t.Fatalf("malformed want comment %q: %v", comment, err)
	}
	return s, true
}

// TestSuppressionSemantics pins down the suppression rules on the
// suppress fixture: reasoned suppressions (trailing or above-line) hide
// their finding, a reasonless one is itself reported without hiding
// anything, and a wrong-check suppression hides nothing.
func TestSuppressionSemantics(t *testing.T) {
	l, _ := sharedLoader(t)
	pkg, err := l.loadDir(filepath.Join("testdata", "src", "suppress"), "example/suppressdemo")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := RunChecks(DefaultConfig(), []*Package{pkg})
	kept, suppressed := Filter(findings, []*Package{pkg})

	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (trailing + above-line)", suppressed)
	}
	byCheck := map[string]int{}
	for _, f := range kept {
		byCheck[f.Check]++
	}
	if byCheck[CheckSuppression] != 1 {
		t.Errorf("suppression findings = %d, want 1 (the reasonless comment)", byCheck[CheckSuppression])
	}
	if byCheck["determinism"] != 2 {
		t.Errorf("surviving determinism findings = %d, want 2 (reasonless + wrong check)", byCheck["determinism"])
		for _, f := range kept {
			t.Logf("kept: %s", f)
		}
	}
}

// TestDisabledChecks verifies the config kill-switch: disabling
// determinism silences the registry fixture entirely.
func TestDisabledChecks(t *testing.T) {
	l, _ := sharedLoader(t)
	pkg, err := l.loadDir(filepath.Join("testdata", "src", "registry"), "autoresched/internal/registry")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	cfg := fixtureConfig()
	cfg.DisabledChecks = append(cfg.DisabledChecks, "determinism")
	findings := RunChecks(cfg, []*Package{pkg})
	kept, _ := Filter(findings, []*Package{pkg})
	for _, f := range kept {
		t.Errorf("finding survived a disabled check: %s", f)
	}
}

func TestMatchPackage(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"internal/vclock", "autoresched/internal/vclock", true},
		{"internal/vclock", "internal/vclock", true},
		{"internal/vclock", "autoresched/internal/vclockx", false},
		{"cmd/...", "autoresched/cmd/reschedvet", true},
		{"cmd/...", "autoresched/cmd", true},
		{"cmd/...", "autoresched/internal/core", false},
		{"net", "net", true},
		{"net", "net/http", false},
		{"internal/proto", "autoresched/internal/proto", true},
	}
	for _, c := range cases {
		if got := matchPackage(c.pattern, c.path); got != c.want {
			t.Errorf("matchPackage(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

// TestNoGhostEntries: every package the layer table and DefaultConfig's
// lists name is one the module builds or imports, and every identifier
// EventPayloadTypes and the deadexport keep table name exists, so an entry
// a fold or a deletion left behind fails here instead of matching nothing.
func TestNoGhostEntries(t *testing.T) {
	l, pkgs := sharedLoader(t)
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
	}
	for path := range l.exports {
		paths = append(paths, path)
	}
	cfg := DefaultConfig()
	var patterns []string
	for _, list := range append([][]string{cfg.AllowClockPackages, cfg.NilGuardPackages,
		cfg.ErrorPackages, cfg.MutexBlockingPackages, cfg.EnumPackages}, layers...) {
		patterns = append(patterns, list...)
	}
	for _, pattern := range patterns {
		found := false
		for _, path := range paths {
			found = found || matchPackage(pattern, path)
		}
		if !found {
			t.Errorf("%s names no package of the module or its imports", pattern)
		}
	}
	names := append([]string(nil), cfg.EventPayloadTypes...)
	for name := range deadKeep {
		names = append(names, name)
	}
	for _, name := range names {
		rel, qual, _ := strings.Cut(name, ".")
		var pkg *Package
		for _, p := range pkgs {
			if p.Path == module+"/"+rel {
				pkg = p
			}
		}
		if pkg == nil {
			t.Errorf("%s: no module package %s", name, rel)
			continue
		}
		typeName, member, _ := strings.Cut(qual, ".")
		obj := pkg.Types.Scope().Lookup(typeName)
		if obj != nil && member != "" {
			obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg.Types, member)
		}
		if obj == nil {
			t.Errorf("%s: %s declares no %s", name, rel, qual)
		}
	}
}

// TestDesignRendersLayers: DESIGN.md's Layering block is the layer table,
// top row first, one row per line, so the diagram cannot drift from what
// the layering check enforces.
func TestDesignRendersLayers(t *testing.T) {
	var want strings.Builder
	for i := len(layers) - 1; i >= 0; i-- {
		want.WriteString(strings.Join(layers[i], "  ") + "\n")
	}
	data, err := os.ReadFile(filepath.Join(moduleRoot(t), "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "## Layering\n\n```\n")
	block, _, closed := strings.Cut(rest, "```")
	if !ok || !closed {
		t.Fatal("DESIGN.md has no fenced block under ## Layering")
	}
	if block != want.String() {
		t.Errorf("DESIGN.md's Layering block is not the layer table; it should read:\n%s", want.String())
	}
}

// TestDesignNamesEveryCheck: DESIGN.md's Static invariants section has a
// bullet for every check, and its count sentence matches Checks().
func TestDesignNamesEveryCheck(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(moduleRoot(t), "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(data), "## Static invariants")
	section, _, _ = strings.Cut(section, "\n## ")
	section = strings.Join(strings.Fields(section), " ")
	perPackage := 0
	for _, c := range Checks() {
		if !strings.Contains(section, "* **"+c.Name+"** —") {
			t.Errorf("DESIGN.md's Static invariants section has no bullet for %s", c.Name)
		}
		if c.Run != nil {
			perPackage++
		}
	}
	words := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten", "eleven", "twelve"}
	count := fmt.Sprintf("runs its %s project-specific checks", words[len(Checks())])
	split := fmt.Sprintf("%s are per-package AST walks; %s run once over the whole loaded module",
		strings.ToUpper(words[perPackage][:1])+words[perPackage][1:], words[len(Checks())-perPackage])
	for _, want := range []string{count, split} {
		if !strings.Contains(section, want) {
			t.Errorf("DESIGN.md's Static invariants section does not say %q", want)
		}
	}
}
