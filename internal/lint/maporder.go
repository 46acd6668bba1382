package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporderCheck owns map-iteration order. Go randomizes map iteration order
// per iteration, so a range over a map makes the result vary run to run even
// with a fixed seed when its body does order-sensitive work: appending to a
// slice, accumulating a float (float addition is not associative), writing
// output, or scheduling events. The order also escapes a loop through
// dataflow: a plain assignment that keeps whichever entry the runtime visited
// last and is read after the loop (the shape of the jain-metric bug), and a
// float sum spelled as a plain assignment (sum = sum + v).
//
// The canonical fix — collect the keys, sort them, iterate the sorted
// slice — is recognized: a loop that only builds a key slice which is later
// passed to sort.* or slices.Sort* in the same function is clean. Writes
// indexed by the loop's own key variable (sums[k] += v) touch a distinct
// accumulator per key and are also clean, as is an assignment guarded by a
// condition (a max or a lookup).
var maporderCheck = &Check{
	Name: "maporder",
	Doc:  "no order-sensitive work (appends, float sums, writes, event scheduling, last-writer-wins) inside map iteration",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, fb := range funcBodies(pass.Pkg) {
		checkFuncMapRanges(pass, fb.body)
	}
}

// checkFuncMapRanges finds the map ranges belonging directly to this
// function body (nested function literals are visited on their own) and
// analyzes each.
func checkFuncMapRanges(pass *Pass, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := pass.Pkg.Info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ranges = append(ranges, rs)
				}
			}
		}
		return true
	})
	for _, rs := range ranges {
		analyzeMapRange(pass, rs, body)
		checkMapRangeFlow(pass, rs, body)
	}
}

// analyzeMapRange reports the first order-sensitive operation in the body of
// a map range. The diagnostic is anchored at the range statement so one
// directive covers the loop.
func analyzeMapRange(pass *Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	info := pass.Pkg.Info
	var keyObj types.Object
	if id, ok := rs.Key.(*ast.Ident); ok {
		keyObj = info.Defs[id]
		if keyObj == nil {
			keyObj = info.Uses[id]
		}
	}
	report := func(format string, args ...any) {
		pass.Reportf(rs.For, "range over map: "+format, args...)
	}
	done := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
					continue
				}
				tgt := rootObj(info, call.Args[0])
				if tgt == nil || !sortedAfter(info, funcBody, rs.End(), tgt) {
					done = true
					report("appends to %s in map iteration order; collect the keys, sort them, then iterate", nameOf(tgt))
					return false
				}
			}
			if isOrderSensitiveFloatAssign(info, s, keyObj) {
				done = true
				report("accumulates a float in map iteration order; float addition is not associative — iterate sorted keys")
				return false
			}
		case *ast.CallExpr:
			if what := orderedSideEffect(info, s); what != "" {
				done = true
				report("%s in map iteration order; iterate sorted keys", what)
				return false
			}
		}
		return true
	})
}

// checkMapRangeFlow reports iteration-order-dependent dataflow escaping a map
// range: last-writer-wins plain assignments and plain-assign float
// accumulation, each at its assignment.
func checkMapRangeFlow(pass *Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	info := pass.Pkg.Info
	iterVars := make(map[types.Object]bool)
	for _, x := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := x.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				iterVars[obj] = true
			}
		}
	}
	if len(iterVars) == 0 {
		return
	}
	var keyObj types.Object
	if id, ok := rs.Key.(*ast.Ident); ok {
		keyObj = info.Defs[id]
	}
	// Only direct children of the range body qualify: an assignment guarded
	// by an if/switch is conditional, not last-writer-wins.
	for _, stmt := range rs.Body.List {
		s, ok := stmt.(*ast.AssignStmt)
		if !ok || s.Tok != token.ASSIGN {
			continue
		}
		for i, lhs := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			rhs := s.Rhs[i]
			if !mentionsAny(info, rhs, iterVars) {
				continue
			}
			obj := rootObj(info, lhs)
			// A variable declared in the body, or a field of one
			// (s.Min = ...), is per-iteration state.
			if obj == nil || iterVars[obj] || declaredIn(baseVar(info, lhs), rs.Body) {
				continue
			}
			if indexedBy(info, lhs, keyObj) {
				continue
			}
			if mentionsAny(info, rhs, map[types.Object]bool{obj: true}) {
				// Self-referential update: an accumulation, not
				// last-writer-wins. Float accumulation is order-sensitive
				// (addition is not associative); an append is
				// analyzeMapRange's, which knows the sortedAfter exemption.
				if isFloatType(info.TypeOf(lhs)) {
					pass.Reportf(s.TokPos, "range over map: %s accumulates a float in map iteration order via plain assignment; float addition is not associative — iterate sorted keys", obj.Name())
				}
				continue
			}
			if usedAfter(info, funcBody, rs.End(), obj) {
				pass.Reportf(s.TokPos, "range over map: %s keeps the last-visited entry's value and is read after the loop; iteration order varies per run — select the entry by a deterministic rule", obj.Name())
			}
		}
	}
}

// isOrderSensitiveFloatAssign reports whether s compound-assigns into a
// float accumulator that is shared across iterations (i.e. not indexed by
// the loop's key variable).
func isOrderSensitiveFloatAssign(info *types.Info, s *ast.AssignStmt, keyObj types.Object) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	lhs := s.Lhs[0]
	return isFloatType(info.TypeOf(lhs)) && !indexedBy(info, lhs, keyObj)
}

// indexedBy reports whether expr is an index expression whose index mentions
// obj (the loop key), making the write per-key rather than shared.
func indexedBy(info *types.Info, expr ast.Expr, obj types.Object) bool {
	ix, ok := expr.(*ast.IndexExpr)
	if !ok || obj == nil {
		return false
	}
	found := false
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// orderedSideEffect classifies calls whose observable effect depends on call
// order: formatted or raw writes to a stream, and event scheduling.
func orderedSideEffect(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if _, path := pkgSelector(info, sel); path != "" {
		switch path {
		case "fmt":
			switch name {
			case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
				return "writes output via fmt." + name
			}
		case "io":
			if name == "WriteString" {
				return "writes output via io.WriteString"
			}
		}
		return ""
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return "writes output via ." + name
	case "Schedule", "ScheduleAt":
		return "schedules events via ." + name
	}
	return ""
}

// sortedAfter reports whether obj is passed to a sort call (sort.* or
// slices.Sort*) positioned after pos in the function body — the
// collect-then-sort idiom.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		if _, path := pkgSelector(info, call.Fun); path != "sort" && path != "slices" {
			return true
		}
		arg := call.Args[0]
		// Unwrap a sort.Sort(byX(s)) style conversion or wrapper.
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			arg = conv.Args[0]
		}
		if rootObj(info, arg) == obj {
			found = true
		}
		return !found
	})
	return found
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// rootObj resolves the base object an expression reads or writes: the
// innermost identifier of selector/index/paren/star chains.
func rootObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok {
				return sel.Obj()
			}
			return info.Uses[e.Sel]
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// nameOf renders an object name for diagnostics.
func nameOf(obj types.Object) string {
	if obj == nil {
		return "a slice"
	}
	return obj.Name()
}

// mentionsAny reports whether the expression references any of the objects.
func mentionsAny(info *types.Info, x ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// declaredIn reports whether the object's declaration lies inside the node.
func declaredIn(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

// baseVar resolves the variable at the base of a selector/index/paren/star
// chain (s in s.a[i].b), or nil.
func baseVar(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return info.Uses[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isFloatType reports whether t's underlying type is a float.
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// usedAfter reports whether obj is referenced after pos within the function
// body.
func usedAfter(info *types.Info, funcBody *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Pos() > pos && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
