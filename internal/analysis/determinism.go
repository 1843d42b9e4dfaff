package analysis

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time-package entry points that read or schedule
// against the wall clock. Sim-path code must route them through
// vclock.Clock so the Auto and Manual clocks stay authoritative.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

// globalRandFuncs are the math/rand (and v2) package-level functions that
// draw from the process-global, wall-seeded source. Deterministic code
// must use an explicitly seeded *rand.Rand instead; rand.New/NewSource
// and methods on *rand.Rand are fine.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
	// math/rand/v2 additions.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

// checkDeterminism flags direct wall-clock reads (time.Now and friends)
// and draws from the global math/rand source outside the allowlisted
// packages. The chaos/scale repro is byte-deterministic per seed only
// because every sim-path component takes a vclock.Clock and a seeded
// PRNG; this check keeps it that way.
func checkDeterminism(cfg Config, pkg *Package) []Finding {
	if matchAny(cfg.AllowClockPackages, pkg.Path) {
		return nil
	}
	var findings []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
				// Methods are fine: *rand.Rand draws are seeded by whoever
				// built the Rand, and time.Time methods are pure.
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					findings = append(findings, Finding{
						Pos:   pkg.Fset.Position(sel.Pos()),
						Check: "determinism",
						Msg:   "time." + fn.Name() + " reads the wall clock; sim-path code must use vclock.Clock",
					})
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[fn.Name()] {
					findings = append(findings, Finding{
						Pos:   pkg.Fset.Position(sel.Pos()),
						Check: "determinism",
						Msg:   "rand." + fn.Name() + " draws from the global wall-seeded source; use a rand.New(rand.NewSource(seed))",
					})
				}
			}
			return true
		})
	}
	return findings
}
