package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// configStructs are the device and harness configuration structs whose every
// field must have a caller.
var configStructs = []struct{ pkg, name string }{
	{"internal/core", "Config"},
	{"internal/fpga", "Config"},
	{"internal/tofino", "Config"},
	{"internal/fabric", "Config"},
	{"internal/netem", "LinkConfig"},
	{"internal/workload", "DriverConfig"},
	{"internal/measure", "OverloadConfig"},
}

// unsetFields excuses a configStructs field that no caller sets, with the
// reason it stays a field rather than a constant.
var unsetFields = map[string]string{
	"core.Config.ForwardJitter":  "TestForwardJitterReordersButCompletes needs it to reorder DATA in flight",
	"fabric.Config.PFCXOFFBytes": "TestPFCHopByHop and TestSingleShapePFCPausesEveryUplink set a watermark below the default",
	"fpga.Config.DisableLog":     "bench/kernels.go sets it to time the NIC without the logger",
	"fpga.Config.LogCapacity":    "test-only capacity: the store tests fill the retained-record ring",
	"fpga.Config.RXFIFODepth":    "test-only capacity: the RX FIFO overflow tests need a short FIFO",
}

// TestEveryConfigFieldHasACaller keeps the configuration surface honest: a
// field of a configStructs struct must be set — a composite-literal key, an
// assignment, an increment or an address taken — somewhere in the module's
// non-test code outside the struct's own package and outside the bench
// harness, or be listed in unsetFields with its reason. A field only its own
// package's defaulting writes is one value in use: a constant. Fields are
// resolved by type, so a same-named field of another struct never counts.
func TestEveryConfigFieldHasACaller(t *testing.T) {
	l := loader(t)
	dirs, err := ExpandPatterns(l.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}

	fields := map[*types.Var]string{} // field -> "pkg.Struct.Field"
	var names []string
	for _, cs := range configStructs {
		pkg, err := l.load(l.ModulePath + "/" + cs.pkg)
		if err != nil {
			t.Fatalf("loading %s: %v", cs.pkg, err)
		}
		obj := pkg.Types.Scope().Lookup(cs.name)
		if obj == nil {
			t.Fatalf("%s has no type %s", cs.pkg, cs.name)
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			name := pkg.Types.Name() + "." + cs.name + "." + f.Name()
			fields[f] = name
			names = append(names, name)
		}
	}

	setBy := map[string]token.Position{} // field name -> first setter found
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		if pkg.Path == l.ModulePath+"/bench" || strings.HasPrefix(pkg.Path, l.ModulePath+"/bench/") {
			continue
		}
		mark := func(obj types.Object, at token.Pos) {
			f, ok := obj.(*types.Var)
			if !ok || fields[f] == "" || f.Pkg() == pkg.Types {
				return
			}
			if _, seen := setBy[fields[f]]; !seen {
				setBy[fields[f]] = l.Fset.Position(at)
			}
		}
		markSel := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					mark(s.Obj(), sel.Pos())
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := pkg.Info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(pkg.Info.Uses[key], key.Pos())
							}
						} else if i < st.NumFields() {
							mark(st.Field(i), elt.Pos())
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSel(lhs)
					}
				case *ast.IncDecStmt:
					markSel(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSel(n.X)
					}
				}
				return true
			})
		}
	}

	sort.Strings(names)
	isField := map[string]bool{}
	for _, name := range names {
		isField[name] = true
		why, excused := unsetFields[name]
		at, set := setBy[name]
		switch {
		case set && excused:
			t.Errorf("%s is listed in unsetFields (%s) but %s sets it", name, why, at)
		case !set && !excused:
			t.Errorf("%s is set by no caller outside its package: delete it, make it a constant, or add it to unsetFields with a reason", name)
		}
	}
	for name := range unsetFields {
		if !isField[name] {
			t.Errorf("unsetFields lists %q, which is not a field of a configStructs struct", name)
		}
	}
}
