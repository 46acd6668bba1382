package lint

import "go/ast"

// wallclockCheck flags reads of the host clock. They make a run depend on
// state outside the configuration seed, which breaks the "pure function of
// inputs and seed" contract the whole evaluation rests on. Host-side code
// (progress ETAs, wall-time reporting) suppresses with a justified
// //marlin:allow wallclock.
var wallclockCheck = &Check{
	Name: "wallclock",
	Doc:  "no time.Now/Since/Sleep outside justified host-side use",
	Run:  runWallclock,
}

// wallClockTimeFuncs are the package-level time functions that read or wait
// on the host clock. Types (time.Duration) and pure constants are fine.
var wallClockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func runWallclock(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, path := pkgSelector(pass.Pkg.Info, n); path == "time" && wallClockTimeFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the host clock; a run must be a pure function of inputs and seed — derive time from the engine (sim.Time)",
					sel.Sel.Name)
			}
			return true
		})
	}
}
