package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// rngsourceCheck keeps stochastic draws on seeded sim.Rand streams. A draw
// from the process-global math/rand source differs run to run, so it is
// flagged in every package, host-side included. In model packages a
// math/rand import or constructor is flagged too: it builds a generator
// whose seed doesn't flow from the experiment configuration, so the run
// stops being reproducible from its seed. Host-side packages may build
// their own generators.
var rngsourceCheck = &Check{
	Name: "rngsource",
	Doc:  "no global math/rand draws anywhere; model packages draw from a seeded sim.Rand, never math/rand",
	Run:  runRngSource,
}

// randConstructors build explicit generators rather than touching the
// global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runRngSource(pass *Pass) {
	model := !HostSide(pass.Pkg.Path)
	for _, f := range pass.Pkg.Files {
		if model {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err == nil && isMathRand(path) {
					pass.Reportf(spec.Pos(),
						"model package imports %s; stochastic draws must come from a seeded sim.Rand (internal/sim)", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, path := pkgSelector(pass.Pkg.Info, n)
			if !isMathRand(path) {
				return true
			}
			switch _, isFunc := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); {
			case randConstructors[sel.Sel.Name]:
				if model {
					pass.Reportf(sel.Pos(),
						"construct model RNGs with sim.NewRand(seed) so the stream derives from the run seed, not rand.%s",
						sel.Sel.Name)
				}
			case isFunc:
				pass.Reportf(sel.Pos(),
					"rand.%s draws from the global math/rand source; draw from a seeded sim.Rand instead",
					sel.Sel.Name)
			}
			return true
		})
	}
}

func isMathRand(path string) bool { return path == "math/rand" || path == "math/rand/v2" }
