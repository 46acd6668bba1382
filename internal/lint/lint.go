// Package lint implements marlinvet, the determinism static analyzer for
// the Marlin simulation core.
//
// Marlin's evaluation rests on every run being a pure function of its inputs
// and RNG seed (see internal/sim). That contract is easy to break silently:
// one time.Now in a model package, one float accumulated in map iteration
// order, and campaign outputs stop being byte-identical across runs. Each
// check owns one bug class, and each stays because it catches a mutant of
// real code that the tests, the race detector and the fuzzer miss
// (DESIGN.md, "Static analysis"):
//
//   - wallclock: no host-clock reads (time.Now/Since/Sleep/...) anywhere in
//     the tree without a justified directive.
//   - maporder: map-iteration order. A range over a map whose body does
//     order-sensitive work (appends to a slice, accumulates a float, writes
//     output, schedules events) or lets the order escape through dataflow
//     (last-writer-wins, plain-assign float accumulation) must iterate
//     sorted keys instead.
//   - rngsource: no draws from the global math/rand source anywhere; model
//     packages draw from a seeded sim.Rand, never math/rand.
//   - poolflow: ownership tracking for pooled packets — use-after-Release,
//     double Release and leaks, within a function or closure and across call
//     boundaries, driven by per-function ownership summaries (does the
//     callee consume or borrow its packet arguments?).
//   - detflow: goroutines and selects in model code (annotated when
//     reachable from an engine callback via the call graph).
//
// All checks run over one shared Program: each package is parsed and
// type-checked once per invocation, and the dataflow checks share a function
// index, a static call graph, and memoized per-function summaries, so adding
// a check adds a syntax walk, never another type-check.
//
// Intentional violations are suppressed with a directive that must carry a
// justification:
//
//	//marlin:allow wallclock -- progress ETA is host-side UX, not model state
//
// The directive covers its own line and the next line. An unjustified or
// unknown-check directive is itself a diagnostic, so the suppression story
// stays auditable.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at its source location.
type Diagnostic struct {
	Check string
	Pos   token.Position
	Msg   string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Msg, d.Check)
}

// Check is one marlinvet analysis, in the style of go/analysis: a name, a
// one-line doc string, and a Run function that reports through the pass.
type Check struct {
	Name string
	Doc  string
	// ModelOnly restricts the check to model packages; host-side packages
	// (fleet, cmd, examples) are skipped entirely.
	ModelOnly bool
	Run       func(*Pass)
}

// Pass carries one check's execution over one package, with access to the
// whole-program context for interprocedural facts.
type Pass struct {
	Pkg   *Package
	Prog  *Program
	check *Check
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check: p.check.Name,
		Pos:   p.Pkg.Fset.Position(pos),
		Msg:   fmt.Sprintf(format, args...),
	})
}

// AllChecks returns every registered check, in a stable order.
func AllChecks() []*Check {
	return []*Check{
		wallclockCheck, maporderCheck, rngsourceCheck, poolflowCheck, detflowCheck,
	}
}

// CheckNames returns the names of every registered check, sorted.
func CheckNames() []string {
	var names []string
	for _, c := range AllChecks() {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}

// SelectChecks resolves a comma-separated name list ("" means all checks).
// A name prefixed with "-" removes the check from the selection instead, so
// "-poolflow" means every check except poolflow; additions and removals may
// be mixed, with removals winning.
func SelectChecks(names string) ([]*Check, error) {
	all := AllChecks()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*Check)
	for _, c := range all {
		byName[c.Name] = c
	}
	var adds []*Check
	removed := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		neg := strings.HasPrefix(n, "-")
		name := strings.TrimPrefix(n, "-")
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(CheckNames(), ", "))
		}
		if neg {
			removed[c.Name] = true
		} else {
			adds = append(adds, c)
		}
	}
	if adds == nil {
		// Pure-removal selection: start from all checks.
		adds = all
	}
	var out []*Check
	for _, c := range adds {
		if !removed[c.Name] {
			out = append(out, c)
		}
	}
	return out, nil
}

// HostSide reports whether the package runs on the host side of the
// simulation boundary — campaign orchestration, CLIs, and examples — which
// the model-only checks skip: goroutines and self-seeded generators are
// legitimate there. Everything else is model code bound by the determinism
// contract.
func HostSide(path string) bool {
	rel := strings.TrimPrefix(path, "marlin/")
	if strings.Contains(rel, "/testdata/") {
		// Fixture packages model model-side code regardless of where the
		// testdata tree lives.
		return false
	}
	switch {
	case rel == "internal/fleet" || strings.HasPrefix(rel, "internal/fleet/"):
		return true
	case rel == "internal/lint" || strings.HasPrefix(rel, "internal/lint/"):
		return true
	case strings.HasPrefix(rel, "cmd/"):
		return true
	case strings.HasPrefix(rel, "examples/"):
		return true
	}
	return false
}

// Run executes the checks over the packages and returns the surviving
// diagnostics, sorted by position. All checks share one Program — one parse
// and type-check per package, one function index and call graph, memoized
// interprocedural summaries. Diagnostics covered by a justified
// //marlin:allow directive are suppressed; malformed directives are
// reported; identical findings from overlapping checks are deduplicated.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	prog := newProgram(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs := collectDirectives(pkg)
		var raw []Diagnostic
		for _, c := range checks {
			if c.ModelOnly && HostSide(pkg.Path) {
				continue
			}
			pass := &Pass{Pkg: pkg, Prog: prog, check: c, diags: &raw}
			c.Run(pass)
		}
		seen := make(map[Diagnostic]bool)
		for _, d := range raw {
			if seen[d] {
				continue
			}
			seen[d] = true
			if !dirs.allows(d) {
				out = append(out, d)
			}
		}
		out = append(out, dirs.problems()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}
