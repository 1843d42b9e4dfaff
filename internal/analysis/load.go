package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package: the unit a Check runs on.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Tests are the package's _test.go files and Fixtures the .go files
	// under its testdata directory, parsed but not type-checked: deadexport
	// counts the references in them.
	Tests    []*ast.File
	Fixtures []*ast.File
}

// Loader parses and type-checks packages without golang.org/x/tools: the
// go command supplies compiled export data for every dependency (via
// `go list -export -deps`), and go/importer's gc importer reads it through
// a lookup function. Only the packages under analysis are type-checked
// from source, so the load cost stays proportional to the module, not its
// transitive closure.
//
// Test files and testdata programs are only parsed (Package.Tests and
// Fixtures): the invariants the checks enforce are about runtime code, and
// the determinism policy explicitly allowlists *_test.go.
type Loader struct {
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.ImporterFrom
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	DepOnly      bool
}

// NewLoader runs `go list -export` over patterns in dir and type-checks
// every matched non-dependency package, returning them in listing order.
// The returned Loader can then type-check extra out-of-tree package
// directories (fixtures) against the same dependency universe.
func NewLoader(dir string, patterns []string) (*Loader, []*Package, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
	}

	l := &Loader{
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
	}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup).(types.ImporterFrom)

	var targets []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list -export: decoding output: %v", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			targets = append(targets, p)
		}
	}

	var pkgs []*Package
	for _, t := range targets {
		tests := joinAll(t.Dir, append(t.TestGoFiles, t.XTestGoFiles...))
		pkg, err := l.load(t.ImportPath, joinAll(t.Dir, t.GoFiles), tests, goFilesUnder(filepath.Join(t.Dir, "testdata")))
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return l, pkgs, nil
}

func joinAll(dir string, names []string) []string {
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
	return paths
}

// goFilesUnder lists the .go files below root; none when it does not exist.
func goFilesUnder(root string) []string {
	var paths []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	return paths
}

// lookup feeds the gc importer the export data file of an import path.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	f, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %q (not in the dependency graph of the listed patterns)", path)
	}
	return os.Open(f)
}

// loadDir type-checks the non-test .go files in dir as one package with
// the given import path, and parses its _test.go files as the package's
// Tests. Fixture tests use this to check files that are outside the
// module's package graph; the synthetic import path lets a fixture
// impersonate any package the config treats specially.
func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	if len(paths) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	var files, tests []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			tests = append(tests, path)
		} else {
			files = append(files, path)
		}
	}
	return l.load(importPath, files, tests, nil)
}

// parse parses files in the given mode.
func (l *Loader) parse(paths []string, mode parser.Mode) ([]*ast.File, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(l.fset, path, nil, mode|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// load type-checks one package from explicit file paths, and parses its
// test files and testdata programs.
func (l *Loader) load(importPath string, paths, tests, fixtures []string) (*Package, error) {
	pkg := &Package{Path: importPath, Fset: l.fset, Info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	// Tests and testdata programs are only parsed, beside the type-check;
	// the two share nothing but the FileSet, which is safe for concurrent
	// use.
	var testErr error
	parsed := make(chan struct{})
	go func() {
		defer close(parsed)
		if pkg.Tests, testErr = l.parse(tests, 0); testErr == nil {
			pkg.Fixtures, testErr = l.parse(fixtures, 0)
		}
	}()
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	var err error
	if pkg.Files, err = l.parse(paths, parser.ParseComments); err == nil {
		pkg.Types, _ = conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
		if len(typeErrs) > 0 {
			err = fmt.Errorf("analysis: type-checking %s: %v", importPath, typeErrs[0])
		}
	}
	<-parsed
	if err = errors.Join(err, testErr); err != nil {
		return nil, err
	}
	return pkg, nil
}
