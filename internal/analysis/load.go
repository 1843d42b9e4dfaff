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
	"runtime"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package: the unit a Check runs on.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Tests are the package's in-package _test.go files. They are
	// type-checked with Files as the package's test variant, so Types and
	// Info cover both; the checks run on Files, and deadexport also counts
	// what the tests reference.
	Tests []*ast.File
	// XTest is the package's external test (package p_test), type-checked
	// against the test variant, and Programs are the main packages under its
	// testdata directory, type-checked against the module: code that reads
	// the package from outside, which deadexport counts.
	XTest    *Package
	Programs []*Package
}

// Loader parses and type-checks packages without golang.org/x/tools: the
// go command supplies compiled export data for every dependency, test-only
// ones included (via `go list -export -deps -test`), and go/importer's gc
// importer reads it through a lookup function. Only the packages under
// analysis are type-checked from source, so the load cost stays
// proportional to the module, not its transitive closure.
//
// Tests are type-checked the way `go test` compiles them: a package's
// in-package tests together with its non-test files, as its test variant,
// and its external tests against the export data the go command built for
// that variant (so what an export_test.go exposes resolves). Programs under
// a package's testdata directory are type-checked against the module's
// export data, except testdata/src, which holds analyzer fixtures in the
// GOPATH layout: inputs, not readers. A test or program that fails to
// type-check is a load error, the same as non-test code.
type Loader struct {
	fset    *token.FileSet
	exports map[string]string // import path or test variant ID -> export data file
	imp     types.Importer    // the module's export data, shared by every load
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
	ForTest      string
	ImportMap    map[string]string
}

// NewLoader runs `go list -export -deps -test` over patterns in dir and
// loads every matched non-dependency package, returning them in listing
// order. The returned Loader can then type-check extra out-of-tree package
// directories (fixtures) against the same dependency universe.
func NewLoader(dir string, patterns []string) (*Loader, []*Package, error) {
	args := append([]string{"list", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Standard,DepOnly,ForTest,ImportMap"}, patterns...)
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
	l.imp = &lockedImporter{imp: importer.ForCompiler(l.fset, "gc", l.lookup)}

	var targets []listedPkg
	xtestImports := make(map[string]map[string]string) // package under test -> its external test's ImportMap
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
		switch {
		case p.ForTest != "":
			// A test variant ("p [p.test]", "p_test [p.test]", or a
			// dependency recompiled against one): export data only.
			if strings.HasPrefix(p.ImportPath, p.ForTest+"_test ") {
				xtestImports[p.ForTest] = p.ImportMap
			}
		case !p.Standard && !p.DepOnly && !strings.HasSuffix(p.ImportPath, ".test"):
			targets = append(targets, p) // not the generated test main "p.test"
		}
	}

	// Each package is checked from source against export data only, so the
	// packages load independently, as many at a time as there are CPUs. On
	// two CPUs a serial loop makes `reschedvet ./...` about 20 % slower
	// (median 863 ms against 720 ms, warm build cache).
	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			pkgs[i], errs[i] = l.loadListed(t, xtestImports[t.ImportPath])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return l, pkgs, nil
}

// lockedImporter serialises a shared importer, whose package map the
// concurrent loads would otherwise race on.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (li *lockedImporter) Import(path string) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.imp.Import(path)
}

// loadListed loads a listed package's test variant, its external test,
// whose imports go through importMap (the go command's map from an import
// path to the variant it compiled for the test), and its testdata programs.
func (l *Loader) loadListed(t listedPkg, importMap map[string]string) (*Package, error) {
	pkg, err := l.load(t.ImportPath, joinAll(t.Dir, t.GoFiles), joinAll(t.Dir, t.TestGoFiles), l.imp)
	if err != nil {
		return nil, err
	}
	if len(t.XTestGoFiles) > 0 {
		imp := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
			if id, ok := importMap[path]; ok {
				path = id
			}
			return l.lookup(path)
		})
		if pkg.XTest, err = l.load(t.ImportPath+"_test", joinAll(t.Dir, t.XTestGoFiles), nil, imp); err != nil {
			return nil, err
		}
	}
	// Each directory of .go files under testdata is one program, except
	// testdata/src and what is below it.
	testdata := filepath.Join(t.Dir, "testdata")
	err = filepath.WalkDir(testdata, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if dir == filepath.Join(testdata, "src") {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		if len(files) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(t.Dir, dir)
		prog, err := l.load(t.ImportPath+"/"+filepath.ToSlash(rel), files, nil, l.imp)
		if err == nil {
			pkg.Programs = append(pkg.Programs, prog)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

func joinAll(dir string, names []string) []string {
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
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

// load type-checks one package from explicit file paths: its non-test files
// together with its in-package tests, resolving imports with imp.
func (l *Loader) load(importPath string, paths, tests []string, imp types.Importer) (*Package, error) {
	pkg := &Package{Path: importPath, Fset: l.fset, Info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	var err error
	if pkg.Files, err = l.parse(paths, parser.ParseComments); err != nil {
		return nil, err
	}
	if pkg.Tests, err = l.parse(tests, 0); err != nil {
		return nil, err
	}
	var typeErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	files := append(pkg.Files[:len(pkg.Files):len(pkg.Files)], pkg.Tests...)
	if pkg.Types, _ = conf.Check(importPath, l.fset, files, pkg.Info); typeErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, typeErr)
	}
	return pkg, nil
}
