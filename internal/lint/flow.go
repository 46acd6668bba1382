package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the shared dataflow core: a forward abstract interpreter over
// one function body. The walker owns control flow — statement ordering,
// branch cloning and joining, loop approximation, scope exit — and delegates
// the meaning of atomic operations to a check-specific domain via the
// transfers interface. poolflow and simunits are both built on it; the
// transfer functions themselves are unit-tested independently of any check
// in flow_test.go.
//
// The interpretation is deliberately modest, matching what the checks can
// report without false positives:
//
//   - Branches are analyzed on cloned environments and joined afterwards;
//     a branch whose last statement terminates (return, panic, continue,
//     break, goto) does not flow into the join, so "release on the error
//     path, keep using on the main path" stays precise.
//   - Loop bodies are interpreted once and joined with the zero-iteration
//     environment. Loop-carried facts are out of scope by design.
//   - Nested function literals are separate scopes. The walker does not
//     descend; it instead reports every environment variable the literal
//     captures to the domain, which must account for the unknown timing of
//     the closure (poolflow, for instance, stops tracking captured packets
//     there, and analyzes the literal's own body with them borrowed).

// env maps in-scope variables to a domain's abstract state. Absent keys are
// the domain's bottom ("nothing known").
type env[S comparable] map[types.Object]S

func (e env[S]) clone() env[S] {
	c := make(env[S], len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// transfers is the set of transfer functions a dataflow check plugs into the
// walker. Hooks observe and mutate the environment; the walker never
// interprets states itself.
type transfers[S comparable] interface {
	// join reconciles the states one variable reached on two merging paths.
	join(a, b S) S
	// assign transfers `lhs := rhs` (define=true) or `lhs = rhs`. rhs is nil
	// for declarations without initializers and for extra variables of a
	// short tuple assignment. The walker has already visited rhs (uses,
	// calls) when assign runs.
	assign(e env[S], lhs, rhs ast.Expr, define bool)
	// call transfers one call expression, after its arguments were visited.
	call(e env[S], call *ast.CallExpr)
	// ret transfers a return statement, after its results were visited.
	ret(e env[S], ret *ast.ReturnStmt)
	// rng transfers a range statement header: binds the key/value variables
	// before the body is interpreted.
	rng(e env[S], rs *ast.RangeStmt)
	// use observes one identifier read (not an assignment target).
	use(e env[S], id *ast.Ident)
	// captured observes a variable captured by a nested function literal,
	// whose execution time is unknown to this analysis.
	captured(e env[S], obj types.Object)
	// exitScope observes variables going out of scope in their final state:
	// at the end of the block that declared them, or at function exit.
	exitScope(e env[S], objs []types.Object)
}

// flowWalker interprets one function body over a transfers domain.
type flowWalker[S comparable] struct {
	info *types.Info
	tr   transfers[S]
}

// walk interprets the whole body with the given initial environment
// (typically the function's parameters) and runs exitScope for everything
// still live at every function exit.
func (w *flowWalker[S]) walk(body *ast.BlockStmt, e env[S]) {
	initial := liveVars(e)
	out, terminated := w.block(body.List, e)
	if !terminated {
		w.tr.exitScope(out, initial)
	}
}

// block interprets one statement list on e, returning the outgoing
// environment and whether the list definitely terminates the enclosing
// function body's fall-through (ends in return/panic/continue/break/goto).
// Variables declared directly in the list leave scope at its end.
func (w *flowWalker[S]) block(stmts []ast.Stmt, e env[S]) (env[S], bool) {
	var declared []types.Object
	for _, st := range stmts {
		declared = append(declared, w.declaredBy(st)...)
		var terminated bool
		e, terminated = w.stmt(st, e)
		if terminated {
			// exitScope already ran inside the terminating statement for a
			// return; for break/continue the variables stay live at the
			// loop's join, which the caller owns, so nothing to close here.
			return e, true
		}
	}
	if len(declared) > 0 {
		w.tr.exitScope(e, declared)
		for _, obj := range declared {
			delete(e, obj)
		}
	}
	return e, false
}

// declaredBy lists the variables a statement introduces into the enclosing
// block's scope.
func (w *flowWalker[S]) declaredBy(st ast.Stmt) []types.Object {
	var objs []types.Object
	collect := func(id *ast.Ident) {
		if obj := w.info.Defs[id]; obj != nil {
			objs = append(objs, obj)
		}
	}
	switch s := st.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.DEFINE {
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					collect(id)
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						collect(id)
					}
				}
			}
		}
	}
	return objs
}

// stmt interprets one statement, returning the outgoing environment and
// whether control definitely does not fall through.
func (w *flowWalker[S]) stmt(st ast.Stmt, e env[S]) (env[S], bool) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.expr(rhs, e)
		}
		// Visit non-ident assignment targets (s.f = x reads s) before the
		// domain sees the binding.
		for _, lhs := range s.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				w.expr(lhs, e)
			}
		}
		define := s.Tok == token.DEFINE
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			} else if len(s.Rhs) == 1 {
				rhs = s.Rhs[0] // tuple assignment from one call
			}
			w.tr.assign(e, lhs, rhs, define)
		}
		return e, false

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return e, false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				w.expr(v, e)
			}
			for i, id := range vs.Names {
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				} else if len(vs.Values) == 1 {
					rhs = vs.Values[0]
				}
				w.tr.assign(e, id, rhs, true)
			}
		}
		return e, false

	case *ast.ExprStmt:
		w.expr(s.X, e)
		// A call of the panic builtin terminates the path. The path dies
		// without an exitScope: a panicking path owes no cleanup, and
		// summaries should not count it as a function exit.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := w.info.Uses[id].(*types.Builtin); isBuiltin {
					return e, true
				}
			}
		}
		return e, false

	case *ast.SendStmt:
		w.expr(s.Chan, e)
		w.expr(s.Value, e)
		return e, false

	case *ast.IncDecStmt:
		w.expr(s.X, e)
		return e, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, e)
		}
		w.tr.ret(e, s)
		w.tr.exitScope(e, liveVars(e))
		return e, true

	case *ast.BranchStmt: // break, continue, goto, fallthrough
		return e, s.Tok != token.FALLTHROUGH

	case *ast.BlockStmt:
		return w.joinBranches(e, func() []branchOut[S] {
			out, term := w.block(s.List, e.clone())
			return []branchOut[S]{{out, term}}
		})

	case *ast.IfStmt:
		if s.Init != nil {
			e, _ = w.stmt(s.Init, e)
		}
		w.expr(s.Cond, e)
		return w.joinBranches(e, func() []branchOut[S] {
			thenOut, thenTerm := w.block(s.Body.List, e.clone())
			outs := []branchOut[S]{{thenOut, thenTerm}}
			if s.Else != nil {
				elseOut, elseTerm := w.stmt(s.Else, e.clone())
				outs = append(outs, branchOut[S]{elseOut, elseTerm})
			} else {
				outs = append(outs, branchOut[S]{e, false})
			}
			return outs
		})

	case *ast.ForStmt:
		if s.Init != nil {
			e, _ = w.stmt(s.Init, e)
		}
		if s.Cond != nil {
			w.expr(s.Cond, e)
		}
		return w.joinBranches(e, func() []branchOut[S] {
			bodyOut, _ := w.block(s.Body.List, e.clone())
			if s.Post != nil {
				bodyOut, _ = w.stmt(s.Post, bodyOut)
			}
			// The loop may run zero times: join the body's effect with the
			// unchanged environment. A terminated body (return inside the
			// loop) still reaches the join because iteration zero may not
			// have entered the loop at all.
			return []branchOut[S]{{bodyOut, false}, {e, false}}
		})

	case *ast.RangeStmt:
		w.expr(s.X, e)
		return w.joinBranches(e, func() []branchOut[S] {
			body := e.clone()
			w.tr.rng(body, s)
			bodyOut, _ := w.block(s.Body.List, body)
			// Unbind the iteration variables before the join: they are out
			// of scope after the loop.
			var iterVars []types.Object
			for _, ie := range []ast.Expr{s.Key, s.Value} {
				if id, ok := ie.(*ast.Ident); ok && id.Name != "_" {
					if obj := w.info.Defs[id]; obj != nil {
						iterVars = append(iterVars, obj)
					}
				}
			}
			if len(iterVars) > 0 {
				w.tr.exitScope(bodyOut, iterVars)
				for _, obj := range iterVars {
					delete(bodyOut, obj)
				}
			}
			return []branchOut[S]{{bodyOut, false}, {e, false}}
		})

	case *ast.SwitchStmt:
		if s.Init != nil {
			e, _ = w.stmt(s.Init, e)
		}
		if s.Tag != nil {
			w.expr(s.Tag, e)
		}
		return w.switchClauses(e, s.Body, func(cc *ast.CaseClause) {
			for _, x := range cc.List {
				w.expr(x, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			e, _ = w.stmt(s.Init, e)
		}
		if as, ok := s.Assign.(*ast.ExprStmt); ok {
			w.expr(as.X, e)
		} else if as, ok := s.Assign.(*ast.AssignStmt); ok {
			for _, rhs := range as.Rhs {
				w.expr(rhs, e)
			}
		}
		return w.switchClauses(e, s.Body, nil)

	case *ast.SelectStmt:
		return w.joinBranches(e, func() []branchOut[S] {
			var outs []branchOut[S]
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					body := e.clone()
					if cc.Comm != nil {
						body, _ = w.stmt(cc.Comm, body)
					}
					out, term := w.block(cc.Body, body)
					outs = append(outs, branchOut[S]{out, term})
				}
			}
			return outs
		})

	case *ast.GoStmt:
		w.expr(s.Call, e)
		return e, false

	case *ast.DeferStmt:
		w.expr(s.Call, e)
		return e, false

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, e)

	default:
		return e, false
	}
}

// branchOut is one control-flow branch's outgoing state.
type branchOut[S comparable] struct {
	env        env[S]
	terminated bool
}

// joinBranches runs branches (which must clone e before mutating) and joins
// every non-terminated outcome into a single successor environment. If every
// branch terminates, so does the statement.
func (w *flowWalker[S]) joinBranches(e env[S], run func() []branchOut[S]) (env[S], bool) {
	outs := run()
	var joined env[S]
	for _, b := range outs {
		if b.terminated {
			continue
		}
		if joined == nil {
			joined = b.env
			continue
		}
		joined = w.joinEnv(joined, b.env)
	}
	if joined == nil {
		return e, true
	}
	return joined, false
}

// joinEnv merges two environments variable-wise with the domain's join.
// A variable absent on one side joins with the domain's zero value.
func (w *flowWalker[S]) joinEnv(a, b env[S]) env[S] {
	var zero S
	out := make(env[S], len(a))
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			bv = zero
		}
		out[k] = w.tr.join(av, bv)
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			out[k] = w.tr.join(zero, bv)
		}
	}
	return out
}

// switchClauses interprets each case body on a cloned environment and joins
// the survivors. Without a default clause the zero-case fall-through also
// reaches the join.
func (w *flowWalker[S]) switchClauses(e env[S], body *ast.BlockStmt, pre func(*ast.CaseClause)) (env[S], bool) {
	return w.joinBranches(e, func() []branchOut[S] {
		var outs []branchOut[S]
		hasDefault := false
		for _, c := range body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			if pre != nil {
				pre(cc)
			}
			if cc.List == nil {
				hasDefault = true
			}
			out, term := w.block(cc.Body, e.clone())
			outs = append(outs, branchOut[S]{out, term})
		}
		if !hasDefault {
			outs = append(outs, branchOut[S]{e, false})
		}
		return outs
	})
}

// expr visits one expression: identifier reads reach use, calls reach call
// (after their operands), and nested function literals reach captured for
// every environment variable they reference.
func (w *flowWalker[S]) expr(x ast.Expr, e env[S]) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			w.captures(v, e)
			return false
		case *ast.Ident:
			w.tr.use(e, v)
		case *ast.CallExpr:
			// Visit operands first so use/call fire innermost-out, then let
			// the domain transfer the call itself.
			for _, a := range v.Args {
				w.expr(a, e)
			}
			w.expr(v.Fun, e)
			w.tr.call(e, v)
			return false
		case *ast.KeyValueExpr:
			// Struct literal keys are field names, not variable reads.
			w.expr(v.Value, e)
			return false
		}
		return true
	})
}

// captures reports every environment variable referenced inside a nested
// function literal.
func (w *flowWalker[S]) captures(lit *ast.FuncLit, e env[S]) {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.info.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		if _, tracked := e[obj]; tracked {
			seen[obj] = true
			w.tr.captured(e, obj)
		}
		return true
	})
}

// liveVars lists the environment's tracked variables in declaration order,
// so everything derived from the environment (exit-scope reports, summary
// facts) is independent of map iteration order.
func liveVars[S comparable](e env[S]) []types.Object {
	objs := make([]types.Object, 0, len(e))
	for obj := range e {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	return objs
}
