package lint

import (
	"go/ast"
	"go/types"
)

// Program is the shared analysis context for one marlinvet run: every loaded
// package plus the cross-package facts the dataflow checks consume — a
// function index, a static call graph, and lazily computed per-function
// summaries. It is built once per Run, so adding a check costs one more walk
// over already-parsed syntax, never another parse or type-check.
type Program struct {
	Pkgs []*Package

	// funcs indexes every function and method declaration in the analyzed
	// packages by its types.Func object.
	funcs map[*types.Func]*FuncInfo
	// byPkg lists each package's declarations in file order, the order the
	// per-function checks visit them.
	byPkg map[*Package][]*FuncInfo
	// callees holds the static call graph: for each declared function, the
	// declared functions it calls directly (idents and selector calls that
	// resolve to a *types.Func; interface calls resolve to the interface
	// method object).
	callees map[*types.Func][]*types.Func

	// poolSums memoizes poolflow's per-function ownership summaries.
	poolSums map[*types.Func]*poolSummary
}

// FuncInfo is one function or method declaration with its home package.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Body returns the declaration's body, which may be nil (declared without a
// body, e.g. implemented in assembly).
func (fi *FuncInfo) Body() *ast.BlockStmt { return fi.Decl.Body }

// newProgram indexes the packages' function declarations and the static call
// graph between them.
func newProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:     pkgs,
		funcs:    make(map[*types.Func]*FuncInfo),
		byPkg:    make(map[*Package][]*FuncInfo),
		callees:  make(map[*types.Func][]*types.Func),
		poolSums: make(map[*types.Func]*poolSummary),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				prog.funcs[obj] = fi
				prog.byPkg[pkg] = append(prog.byPkg[pkg], fi)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, fi := range prog.byPkg[pkg] {
			if fi.Decl.Body == nil {
				continue
			}
			obj := fi.Obj
			seen := make(map[*types.Func]bool)
			ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(fi.Pkg.Info, call); callee != nil && !seen[callee] {
					seen[callee] = true
					prog.callees[obj] = append(prog.callees[obj], callee)
				}
				return true
			})
		}
	}
	return prog
}

// FuncsOf returns the package's function declarations in file order.
func (prog *Program) FuncsOf(pkg *Package) []*FuncInfo { return prog.byPkg[pkg] }

// FuncDeclOf returns the declaration of obj if it is declared in one of the
// analyzed packages, nil otherwise (e.g. a standard-library function).
func (prog *Program) FuncDeclOf(obj *types.Func) *FuncInfo { return prog.funcs[obj] }

// reachableFrom computes the set of declared functions reachable from the
// given roots along static call edges, roots included.
func (prog *Program) reachableFrom(roots []*types.Func) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	var work []*types.Func
	for _, r := range roots {
		if !reach[r] {
			reach[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range prog.callees[fn] {
			target := callee
			// An interface method call reaches every analyzed implementation
			// with the same name; resolving full method sets is overkill for
			// a diagnostic annotation, so the edge stays on the interface
			// object and concrete bodies are matched by name at need.
			if !reach[target] {
				reach[target] = true
				work = append(work, target)
			}
		}
	}
	return reach
}

// calleeFunc resolves the function object a call expression invokes: a
// package-level function, a method (concrete or interface), or nil for
// builtins, conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcBody is one analyzable body: a declared function/method or a function
// literal, visited exactly once each by the per-function checks.
type funcBody struct {
	// decl is the enclosing declaration (set for both forms; for a literal it
	// is the function the literal appears in, nil for literals in package-level
	// initializers).
	decl *ast.FuncDecl
	// lit is non-nil when the body belongs to a function literal.
	lit  *ast.FuncLit
	body *ast.BlockStmt
}

// funcBodies lists every function body in the package — declarations first,
// then literals in source order — so checks that analyze one body at a time
// visit each exactly once and can treat nested literals as fresh scopes.
func funcBodies(pkg *Package) []funcBody {
	var out []funcBody
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			if fd != nil && fd.Body != nil {
				out = append(out, funcBody{decl: fd, body: fd.Body})
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					out = append(out, funcBody{decl: fd, lit: fl, body: fl.Body})
				}
				return true
			})
		}
	}
	return out
}

// inspectOwn walks the nodes of one function body without descending into
// nested function literals, which are separate funcBody entries.
func inspectOwn(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// pkgSelector matches a qualified identifier pkg.Name and returns it with
// the imported package's path, or nil and "".
func pkgSelector(info *types.Info, n ast.Node) (*ast.SelectorExpr, string) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil, ""
	}
	return sel, pn.Imported().Path()
}
