package analysis

import (
	"fmt"
	"strconv"
	"strings"
)

// module is the import path the layer table is written relative to; its
// packages, and only they, are held to the table.
const module = "autoresched"

// layers is the tree's layering, lowest row first, and its only statement:
// DESIGN.md's Layering block is this table rendered top row first, and a
// test fails when the two differ. A package's non-test code may import only
// packages in rows below its own, so packages sharing a row never import
// one another. The top row is test support, which no non-test code may
// import.
var layers = [][]string{
	{"internal/vclock", "internal/analysis"},
	{"internal/sim", "internal/metrics"},
	{"internal/sysinfo", "internal/mpi", "internal/livemig", "internal/persist"},
	{"internal/rules", "internal/proto", "internal/hpcm"},
	{"internal/monitor", "internal/registry", "internal/jobs", "internal/malleable"},
	{"internal/core", "internal/workload"},
	{"internal/faults", "internal/scenario"},
	{"internal/experiments"},
	{"cmd/...", "examples/..."},
	{"internal/testutil"},
}

// layerOf returns the row of a module-relative package path, or -1.
func layerOf(rel string) int {
	for i, row := range layers {
		for _, pattern := range row {
			if matchPackage(pattern, rel) {
				return i
			}
		}
	}
	return -1
}

// checkLayering holds a module package to the layer table: it must have a
// row, and every module package it imports must sit in a lower one.
func checkLayering(_ Config, pkg *Package) []Finding {
	rel, ok := strings.CutPrefix(pkg.Path, module+"/")
	if !ok || len(pkg.Files) == 0 {
		return nil // outside the module, or test files only
	}
	row := layerOf(rel)
	if row < 0 {
		return []Finding{{
			Pos:   pkg.Fset.Position(pkg.Files[0].Name.Pos()),
			Check: "layering",
			Msg:   "package " + rel + " is in no row of the layer table (internal/analysis/layering.go)",
		}}
	}
	var findings []Finding
	for _, file := range pkg.Files {
		for _, spec := range file.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			dep, ok := strings.CutPrefix(path, module+"/")
			if !ok {
				continue
			}
			if depRow := layerOf(dep); depRow >= row {
				findings = append(findings, Finding{
					Pos:   pkg.Fset.Position(spec.Pos()),
					Check: "layering",
					Msg: fmt.Sprintf("%s (row %d) imports %s (row %d): a package may import only rows below its own",
						rel, row, dep, depRow),
				})
			}
		}
	}
	return findings
}
