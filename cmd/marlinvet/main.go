// Command marlinvet is Marlin's determinism static analyzer. It enforces,
// at review time, the property the whole evaluation depends on at run time:
// a simulation is a pure function of its inputs and RNG seed. It runs five
// checks — wallclock, maporder, rngsource, poolflow and detflow, one per
// bug class — over one shared parse and type-check of the packages; -list
// describes each.
//
// Usage:
//
//	go run ./cmd/marlinvet ./...
//	go run ./cmd/marlinvet -checks wallclock,maporder ./internal/sim
//	go run ./cmd/marlinvet -checks -poolflow ./...   # all checks except poolflow
//	go run ./cmd/marlinvet -list
//
// marlinvet prints one file:line:col diagnostic per finding and exits
// non-zero if any survive. The -checks list both enables ("wallclock,maporder") and disables
// ("-poolflow" removes a check from the default set). Intentional
// violations are suppressed in source with a justified directive:
//
//	//marlin:allow wallclock -- progress ETA is host-side UX, not model state
//
// An unjustified or unknown-check directive is itself reported, so every
// suppression in the tree carries its why. See DESIGN.md ("The determinism
// contract" and "Static analysis") for the full policy.
package main

import (
	"flag"
	"fmt"
	"os"

	"marlin/internal/lint"
)

func main() {
	checksFlag := flag.String("checks", "", "comma-separated checks to run; prefix a name with - to disable it (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: marlinvet [-checks a,b,-c] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range lint.AllChecks() {
			scope := "all packages"
			if c.ModelOnly {
				scope = "model packages"
			}
			fmt.Printf("%-10s %s (%s)\n", c.Name, c.Doc, scope)
		}
		return
	}

	if err := run(*checksFlag, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "marlinvet:", err)
		os.Exit(2)
	}
}

func run(checkNames string, patterns []string) error {
	checks, err := lint.SelectChecks(checkNames)
	if err != nil {
		return err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return err
	}
	dirs, err := lint.ExpandPatterns(cwd, patterns)
	if err != nil {
		return err
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
	}
	diags := lint.Run(pkgs, checks)
	for _, d := range diags {
		fmt.Println(d)
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "marlinvet: %d diagnostic(s) in %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
	return nil
}
