package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism forbids ambient entropy — wall-clock reads and the
// process-global math/rand source — inside the simulation packages.
//
// Every experiment result must be a pure function of (experiment,
// arch, seed, options): that is the invariant the parity tests pin
// byte-for-byte across predecode on/off, telemetry on/off, and
// served-vs-CLI rendering, and it is what makes a reported Table 1
// reproducible at all. time.Now and the global rand functions are the
// two ways nondeterminism historically sneaks in; both have
// deterministic replacements already threaded through the tree (the
// simulated cycle clock, and seeded *rand.Rand values derived from the
// run's seed).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/time.Since and the global math/rand source in simulation packages; " +
		"all randomness must flow from a seeded *rand.Rand and all time from the simulated clock",
	Applies: determinismScope,
	Run:     runDeterminism,
}

// determinismScope: the packages that compute experiment results, plus
// the durable store, whose recovery decisions are designed to be clock-
// and randomness-free. The harness layers around them (sweep,
// telemetry, service, cmd) read the wall clock legitimately — for
// progress lines and latency metrics — and are kept honest by the
// no-perturbation parity tests instead.
func determinismScope(pkgPath, filename string) bool {
	switch pkgPath {
	case "phantom/internal/pipeline", "phantom/internal/btb", "phantom/internal/cache",
		"phantom/internal/mem", "phantom/internal/uarch", "phantom/internal/isa",
		"phantom/internal/kernel", "phantom/internal/core", "phantom/internal/stats",
		"phantom/internal/search", "phantom/internal/store":
		return true
	case "phantom":
		// The root package mixes experiment drivers (experiments.go,
		// in scope) with config/report plumbing. Only the drivers
		// compute results.
		return base(filename) == "experiments.go"
	}
	return false
}

// randConstructors are the math/rand package-level functions that do
// NOT touch the global source: they build or seed an explicit
// generator, which is exactly what the invariant demands.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 names, accepted so a future migration does not
	// have to touch this analyzer.
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgName, pkgPath := selectorPackage(pass, sel)
			if pkgName == nil {
				return true
			}
			switch pkgPath {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(), "time.%s reads the wall clock; simulation results must depend only on the seed (use the simulated cycle clock)", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if randConstructors[sel.Sel.Name] {
					return true
				}
				if isPackageFunc(pass, sel) {
					pass.Reportf(sel.Pos(), "rand.%s uses the process-global source; derive a *rand.Rand from the run's seed instead", sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// selectorPackage resolves sel's receiver to an imported package, or
// nil if sel is a field/method selection on a value.
func selectorPackage(pass *Pass, sel *ast.SelectorExpr) (*types.PkgName, string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return nil, ""
	}
	return pn, pn.Imported().Path()
}

// isPackageFunc reports whether sel names a function (not a type,
// const, or var) of the selected package.
func isPackageFunc(pass *Pass, sel *ast.SelectorExpr) bool {
	obj := pass.Info.Uses[sel.Sel]
	_, ok := obj.(*types.Func)
	return ok
}

// base returns the final element of a slash- or OS-separated path.
func base(p string) string {
	if i := strings.LastIndexAny(p, `/\`); i >= 0 {
		return p[i+1:]
	}
	return p
}
