package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// detflowCheck keeps the host scheduler out of replay. The engine replays
// byte-identically only if event handlers are pure functions of sim state, so
// a `go` statement or `select` statement in a model package is a finding:
// host-scheduler interleaving is nondeterministic, and any of it reachable
// from an engine callback (anything scheduled via
// Schedule/ScheduleAt/ScheduleArg*/NewTicker, any sim.Func or sim.ArgFunc
// value, any Receive method) poisons replay. The diagnostic says when the
// enclosing function is reachable from such a root, via the program call
// graph. One shape is exempt: a joined goroutine, where the spawned function
// defers Done on a sync.WaitGroup and the enclosing function Waits on that
// same WaitGroup after the spawn (itself, or in a function it calls or
// defers). The spawned function is a literal at the go statement, or a
// function value built ahead of time whose every assigned literal defers
// that Done — the shard runner's crew, whose worker bodies are built once so
// a Run spawns them without allocating. The join means no goroutine outlives
// the call that forked it, so nothing the host scheduler chose can leak into
// replayed state past it. Map-iteration order is maporder's.
var detflowCheck = &Check{
	Name:      "detflow",
	Doc:       "no unjoined goroutines or selects",
	ModelOnly: true,
	Run:       runDetFlow,
}

func runDetFlow(pass *Pass) {
	roots := engineCallbackRoots(pass.Prog)
	reach := pass.Prog.reachableFrom(roots)
	for _, fb := range funcBodies(pass.Pkg) {
		var encl *types.Func
		if fb.decl != nil {
			encl, _ = pass.Pkg.Info.Defs[fb.decl.Name].(*types.Func)
		}
		inspectOwn(fb.body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				if barrierJoined(pass, s, fb.body) {
					break
				}
				pass.Reportf(s.Go, "model code spawns a goroutine%s; host-scheduler interleaving breaks byte-identical replay — schedule an event instead", reachNote(reach, encl))
			case *ast.SelectStmt:
				pass.Reportf(s.Select, "model code selects over channels%s; ready-case choice is nondeterministic — drive state from engine events instead", reachNote(reach, encl))
			}
			return true
		})
	}
}

// reachNote annotates a finding when the enclosing function is reachable from
// an engine-callback root.
func reachNote(reach map[*types.Func]bool, encl *types.Func) string {
	if encl != nil && reach[encl] {
		return " reachable from an engine callback"
	}
	return ""
}

// engineCallbackRoots collects the functions the engine can invoke as event
// handlers: function values passed to Schedule/ScheduleAt/ScheduleArg/
// ScheduleArgAt/NewTicker, any declared value of type sim.Func or sim.ArgFunc,
// and every method named Receive (the fabric's packet-delivery callback).
func engineCallbackRoots(prog *Program) []*types.Func {
	seen := make(map[*types.Func]bool)
	var roots []*types.Func
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			roots = append(roots, fn)
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, fi := range prog.byPkg[pkg] {
			fn := fi.Obj
			if fn.Name() == "Receive" && fn.Type().(*types.Signature).Recv() != nil {
				add(fn)
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Schedule", "ScheduleAt", "ScheduleArg", "ScheduleArgAt", "NewTicker":
						for _, arg := range call.Args {
							add(funcValueOf(info, arg))
						}
					}
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "NewTicker" {
					for _, arg := range call.Args {
						add(funcValueOf(info, arg))
					}
				}
				// Any argument whose static type is sim.Func/sim.ArgFunc is a
				// handler regardless of the API it flows through.
				for _, arg := range call.Args {
					if isSimCallbackType(info.TypeOf(arg)) {
						add(funcValueOf(info, arg))
					}
				}
				return true
			})
		}
	}
	return roots
}

// funcValueOf resolves an expression used as a function value — a function
// identifier or a method expression/value — to its declaration object.
func funcValueOf(info *types.Info, x ast.Expr) *types.Func {
	switch v := ast.Unparen(x).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[v].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[v]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[v.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isSimCallbackType reports whether t is sim.Func or sim.ArgFunc (or an alias
// of either).
func isSimCallbackType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/sim") {
		return false
	}
	return obj.Name() == "Func" || obj.Name() == "ArgFunc"
}

// barrierJoined reports whether the go statement is a joined goroutine: the
// spawned function signals a sync.WaitGroup through a deferred Done, and the
// spawning function Waits on the same WaitGroup after the spawn. The Wait is
// a happens-before edge that publishes all the goroutine's writes back to
// the spawner, so the goroutine cannot outlive the call that forked it and
// no scheduling choice escapes into replayed state. Free-running goroutines
// — no Done, no Wait, or a Wait that precedes the spawn — stay findings.
func barrierJoined(pass *Pass, gs *ast.GoStmt, funcBody *ast.BlockStmt) bool {
	info := pass.Pkg.Info
	var wg types.Object
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		wg = deferredDoneTarget(info, lit.Body)
	} else if len(gs.Call.Args) == 0 {
		wg = prebuiltDoneTarget(pass.Pkg, rootObj(info, gs.Call.Fun))
	}
	if wg == nil {
		return false
	}
	return waitedAfter(pass.Prog, info, funcBody, gs.End(), wg)
}

// prebuiltDoneTarget resolves a goroutine started from a stored function
// value — the variable or field f, or an element of it — to the WaitGroup
// every function literal assigned to f defers Done on, or nil. Anything else
// of function type assigned to f (a named function, a slice built by
// anything but make) could skip the Done, so it voids the exemption.
func prebuiltDoneTarget(pkg *Package, f types.Object) types.Object {
	if _, ok := f.(*types.Var); !ok {
		return nil
	}
	var wg types.Object
	sound := true
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || !sound {
				return sound
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) || rootObj(pkg.Info, lhs) != f {
					continue
				}
				rhs := ast.Unparen(as.Rhs[i])
				typ := pkg.Info.TypeOf(rhs)
				if typ == nil {
					continue
				}
				var got types.Object
				switch t := typ.Underlying().(type) {
				case *types.Signature:
					if lit, ok := rhs.(*ast.FuncLit); ok {
						got = deferredDoneTarget(pkg.Info, lit.Body)
					}
				case *types.Slice:
					if _, ok := t.Elem().Underlying().(*types.Signature); ok && !isMakeCall(pkg.Info, rhs) {
						sound = false
					}
					continue
				default:
					continue
				}
				if got == nil || (wg != nil && got != wg) {
					sound = false
					return false
				}
				wg = got
			}
			return true
		})
	}
	if !sound {
		return nil
	}
	return wg
}

// isMakeCall reports whether x is a call of the make builtin.
func isMakeCall(info *types.Info, x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "make"
}

// deferredDoneTarget finds a `defer wg.Done()` in the goroutine body and
// returns the WaitGroup object it signals, or nil. The defer matters: a plain
// Done can be skipped by an early return or a panic, leaving the barrier
// counting forever.
func deferredDoneTarget(info *types.Info, body *ast.BlockStmt) types.Object {
	var wg types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if wg != nil {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if obj := waitGroupCallTarget(info, ds.Call, "Done"); obj != nil {
			wg = obj
		}
		return true
	})
	return wg
}

// waitedAfter reports whether wg.Wait() is called after pos inside the
// spawning function's own statements (not a nested literal's), directly or
// by a declared function the spawner calls or defers there.
func waitedAfter(prog *Program, info *types.Info, funcBody *ast.BlockStmt, pos token.Pos, wg types.Object) bool {
	found := false
	inspectOwn(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() > pos {
			if waitGroupCallTarget(info, call, "Wait") == wg {
				found = true
			} else if prog != nil {
				if fi := prog.FuncDeclOf(calleeFunc(info, call)); fi != nil && fi.Body() != nil {
					found = waitedAfter(nil, fi.Pkg.Info, fi.Body(), fi.Body().Pos(), wg)
				}
			}
		}
		return !found
	})
	return found
}

// waitGroupCallTarget resolves a call of the form x.NAME() where x is a
// sync.WaitGroup (or a pointer to one) to x's object, or nil.
func waitGroupCallTarget(info *types.Info, call *ast.CallExpr, name string) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	obj := rootObj(info, sel.X)
	if obj == nil || !isWaitGroup(obj.Type()) {
		return nil
	}
	return obj
}

// isWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
