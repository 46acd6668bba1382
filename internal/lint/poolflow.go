package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolflowCheck is the ownership analysis for pooled packets. Within a
// function it catches a field read, a second Release or a handoff after
// Release. Across functions it catches a packet consumed by a callee (its
// own Release, a Receive handoff, or a helper whose summary says it
// consumes its argument) and then touched by the caller; a double Release
// split across functions; and a pooled packet that
// a function obtains from the pool and then abandons — never Released,
// returned, stored, captured, or handed to another owner — which is a
// permanent leak of pool capacity.
//
// The analysis runs on the shared dataflow core (flow.go). Each function
// with *packet.Packet parameters gets a summary computed on demand from its
// own body:
//
//   - consumes: the parameter is Released (directly or transitively) on
//     every path — callers lose ownership at the call.
//   - borrows: the parameter is only read — callers keep ownership.
//   - unknown: anything else (stored, returned, captured, mixed paths) —
//     callers conservatively stop tracking.
//
// Two rules need no summary because they are the codebase's contract:
// passing a packet to any method named Receive transfers ownership
// (DESIGN.md "Packet pooling"), and (*Packet).Release consumes its
// receiver.
var poolflowCheck = &Check{
	Name:      "poolflow",
	Doc:       "pooled packet ownership: use after Release or consume (within a function or across calls), double Release, and pool leaks",
	ModelOnly: true,
	Run:       runPoolFlow,
}

// poolState is the ownership lattice for one packet variable.
type poolState uint8

const (
	// poolBottom: nothing known (only arises transiently in joins).
	poolBottom poolState = iota
	// poolOwned: a fresh pooled packet this function is responsible for.
	poolOwned
	// poolBorrowed: a parameter or range element; use-after-consume applies
	// but there is no obligation to Release.
	poolBorrowed
	// poolConsumed: definitely Released or ownership definitely handed off;
	// any further touch is a use-after-free against the pool.
	poolConsumed
	// poolMaybe: consumed on some path only; no reports either way.
	poolMaybe
	// poolEscaped: stored, returned, captured, or passed to code this
	// analysis cannot see; tracking stops.
	poolEscaped
)

// paramFate is a summary verdict for one *packet.Packet parameter.
type paramFate uint8

const (
	fateUnknown paramFate = iota
	fateBorrows
	fateConsumes
)

// poolSummary describes what a function does to each of its packet
// parameters (positionally; non-packet parameters hold fateUnknown).
type poolSummary struct {
	fates []paramFate
}

func runPoolFlow(pass *Pass) {
	for _, fb := range funcBodies(pass.Pkg) {
		var fn ast.Node = fb.decl
		if fb.lit != nil {
			fn = fb.lit
		}
		pf := &poolFlow{pass: pass, prog: pass.Prog, info: pass.Pkg.Info, fn: fn}
		w := &flowWalker[poolState]{info: pass.Pkg.Info, tr: pf}
		w.walk(fb.body, pf.paramEnv(fb))
	}
}

// paramEnv builds the initial environment: every *packet.Packet parameter
// (and method receiver) starts as borrowed, and so does every one the body
// reads from outside the function — an enclosing function's variable a
// closure captures, or a package-level variable — so a closure that
// Releases a captured packet and then touches it is reported like any
// other function.
func (pf *poolFlow) paramEnv(fb funcBody) env[poolState] {
	info := pf.info
	e := make(env[poolState])
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && isPacketPtr(v.Type()) && pf.outside(v) {
				e[v] = poolBorrowed
			}
		}
		return true
	})
	bind := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil && isPacketPtr(obj.Type()) {
					e[obj] = poolBorrowed
				}
			}
		}
	}
	if fb.lit != nil {
		bind(fb.lit.Type.Params)
		return e
	}
	bind(fb.decl.Recv)
	bind(fb.decl.Type.Params)
	return e
}

// poolFlow is the transfers domain. With pass == nil it runs in summary
// mode: no diagnostics, but it records per-parameter facts for the caller.
type poolFlow struct {
	pass *Pass
	prog *Program
	info *types.Info
	// fn is the function declaration or literal being analyzed.
	fn ast.Node

	// created remembers where an owned packet came from, for leak messages.
	created map[types.Object]token.Pos
	// consumedBy remembers what consumed a packet, for use-after messages.
	consumedBy map[types.Object]string

	// Summary mode state.
	params []types.Object
	// everConsumed/everEscaped are per-param flow-insensitive facts.
	everConsumed map[types.Object]bool
	everEscaped  map[types.Object]bool
	// exitStates collects each param's state at every function exit.
	exitStates map[types.Object][]poolState
}

func (pf *poolFlow) join(a, b poolState) poolState {
	if a == b {
		return a
	}
	if a == poolBottom || b == poolBottom {
		// One side never tracked the variable (it escaped or was rebound on
		// that path); be silent from here on.
		return poolMaybe
	}
	if a == poolConsumed || b == poolConsumed || a == poolMaybe || b == poolMaybe {
		return poolMaybe
	}
	// Owned/Borrowed/Escaped disagreement: stop claiming anything.
	return poolEscaped
}

func (pf *poolFlow) reportf(pos token.Pos, format string, args ...any) {
	if pf.pass != nil {
		pf.pass.Reportf(pos, format, args...)
	}
}

// trackedIdent resolves an expression to a tracked packet variable.
func (pf *poolFlow) trackedIdent(e env[poolState], x ast.Expr) (*ast.Ident, types.Object) {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	obj := pf.info.Uses[id]
	if obj == nil {
		obj = pf.info.Defs[id]
	}
	if obj == nil {
		return nil, nil
	}
	if _, tracked := e[obj]; !tracked {
		return nil, nil
	}
	return id, obj
}

// markConsumed moves a packet to the consumed state, remembering why.
func (pf *poolFlow) markConsumed(e env[poolState], obj types.Object, why string) {
	e[obj] = poolConsumed
	if pf.consumedBy == nil {
		pf.consumedBy = make(map[types.Object]string)
	}
	pf.consumedBy[obj] = why
	if pf.everConsumed != nil {
		pf.everConsumed[obj] = true
	}
}

// markEscaped stops tracking a packet.
func (pf *poolFlow) markEscaped(e env[poolState], obj types.Object) {
	e[obj] = poolEscaped
	if pf.everEscaped != nil {
		pf.everEscaped[obj] = true
	}
}

func (pf *poolFlow) assign(e env[poolState], lhs, rhs ast.Expr, define bool) {
	// Storing a tracked packet anywhere that is not a plain local rebinding
	// makes it escape: a field, a slice element, a map entry all outlive
	// this function's view.
	lhsID, isIdent := ast.Unparen(lhs).(*ast.Ident)
	if !isIdent {
		if _, obj := pf.trackedIdent(e, rhs); obj != nil {
			pf.markEscaped(e, obj)
		}
		return
	}
	if lhsID.Name == "_" {
		return
	}
	var lhsObj types.Object
	if define {
		lhsObj = pf.info.Defs[lhsID]
	} else {
		lhsObj = pf.info.Uses[lhsID]
	}
	if lhsObj == nil || !isPacketPtr(lhsObj.Type()) {
		return
	}
	// A variable declared outside this function (captured or package-level)
	// outlives it: binding a packet there stores it.
	if pf.outside(lhsObj) {
		if _, obj := pf.trackedIdent(e, rhs); obj != nil {
			pf.markEscaped(e, obj)
		}
		pf.markEscaped(e, lhsObj)
		return
	}
	// Rebinding a tracked variable replaces its state wholesale, whatever it
	// was before (this is what lets `p.Release(); p = packet.Get()` stay
	// clean).
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if pf.isCreator(r) {
			e[lhsObj] = poolOwned
			if pf.created == nil {
				pf.created = make(map[types.Object]token.Pos)
			}
			pf.created[lhsObj] = rhs.Pos()
			return
		}
		// A packet returned by any other call has an owner this analysis
		// does not model; track nothing.
		e[lhsObj] = poolEscaped
	case *ast.Ident:
		// Aliasing: q := p. Tracking aliases soundly needs points-to
		// analysis; stop tracking both instead of guessing.
		if _, obj := pf.trackedIdent(e, r); obj != nil {
			pf.markEscaped(e, obj)
		}
		e[lhsObj] = poolEscaped
	default:
		e[lhsObj] = poolEscaped
	}
}

// isCreator reports whether the call mints a fresh pooled packet the caller
// owns: packet.Get, the typed constructors, their (*packet.Pool) methods,
// or (*Packet).Clone.
func (pf *poolFlow) isCreator(call *ast.CallExpr) bool {
	fn := calleeFunc(pf.info, call)
	if fn == nil {
		return false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if isPacketPtr(recv.Type()) {
			return fn.Name() == "Clone"
		}
		if !isPacketPkgPtr(recv.Type(), "Pool") {
			return false
		}
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != packetPkgPath {
		return false
	}
	switch fn.Name() {
	case "Get", "NewData", "NewDataECT", "NewSche", "NewAck":
		return true
	}
	return false
}

func (pf *poolFlow) call(e env[poolState], call *ast.CallExpr) {
	fn := calleeFunc(pf.info, call)

	// Method calls on a tracked packet: Release consumes the receiver;
	// every other method borrows it.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fn != nil {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isPacketPtr(recv.Type()) {
			if _, obj := pf.trackedIdent(e, sel.X); obj != nil && fn.Name() == "Release" {
				pf.markConsumed(e, obj, "Release returned it to the pool")
			}
		}
	}

	// The repo-wide ownership contract: Receive(p) transfers ownership,
	// whoever implements it.
	if fn != nil && fn.Name() == "Receive" && fn.Type().(*types.Signature).Recv() != nil {
		for _, arg := range call.Args {
			if _, obj := pf.trackedIdent(e, arg); obj != nil && isPacketPtr(obj.Type()) {
				pf.markConsumed(e, obj, "Receive took ownership (Receive transfers ownership)")
			}
		}
		return
	}

	// Other calls: consult the callee's summary for each packet argument.
	var sum *poolSummary
	var sig *types.Signature
	if fn != nil {
		sum = pf.prog.poolSummaryOf(fn)
		sig, _ = fn.Type().(*types.Signature)
	}
	for i, arg := range call.Args {
		_, obj := pf.trackedIdent(e, arg)
		if obj == nil || !isPacketPtr(obj.Type()) {
			continue
		}
		fate := fateUnknown
		if sum != nil && i < len(sum.fates) && (sig == nil || !sig.Variadic() || i < sig.Params().Len()-1) {
			fate = sum.fates[i]
		}
		switch fate {
		case fateConsumes:
			pf.markConsumed(e, obj, "the call to "+fn.Name()+" Releases it on every path")
		case fateBorrows:
			// Caller keeps ownership; state unchanged.
		default:
			pf.markEscaped(e, obj)
		}
	}
}

func (pf *poolFlow) ret(e env[poolState], ret *ast.ReturnStmt) {
	for _, r := range ret.Results {
		if _, obj := pf.trackedIdent(e, r); obj != nil {
			pf.markEscaped(e, obj)
		}
	}
}

func (pf *poolFlow) rng(e env[poolState], rs *ast.RangeStmt) {
	// Ranging over a packet collection yields borrowed views.
	for _, ie := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := ie.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pf.info.Defs[id]; obj != nil && isPacketPtr(obj.Type()) {
			e[obj] = poolBorrowed
		}
	}
}

func (pf *poolFlow) use(e env[poolState], id *ast.Ident) {
	obj := pf.info.Uses[id]
	if obj == nil || e[obj] != poolConsumed {
		return
	}
	why := "it was consumed"
	if pf.consumedBy != nil && pf.consumedBy[obj] != "" {
		why = pf.consumedBy[obj]
	}
	pf.reportf(id.Pos(), "%s used after %s; the pool may already have recycled it (Clone before the handoff to retain a copy)", id.Name, why)
	// One report per consume site.
	pf.markEscaped(e, obj)
}

func (pf *poolFlow) captured(e env[poolState], obj types.Object) {
	// A closure may run at any time relative to this function; stop
	// tracking the packet it captured.
	pf.markEscaped(e, obj)
}

func (pf *poolFlow) exitScope(e env[poolState], objs []types.Object) {
	for _, obj := range objs {
		st, tracked := e[obj]
		if !tracked {
			continue
		}
		if pf.exitStates != nil && pf.isParam(obj) {
			pf.exitStates[obj] = append(pf.exitStates[obj], st)
		}
		if st == poolOwned && pf.pass != nil {
			pos := obj.Pos()
			if pf.created != nil {
				if p, ok := pf.created[obj]; ok {
					pos = p
				}
			}
			pf.reportf(pos, "pooled packet %s is never Released, returned, or handed off on this path — it leaks pool capacity", obj.Name())
			// Report each leak once even if several scopes close over it.
			e[obj] = poolEscaped
		}
	}
}

// outside reports whether obj is declared outside the analyzed function: a
// variable a closure captures, or a package-level one.
func (pf *poolFlow) outside(obj types.Object) bool {
	return obj.Pos() < pf.fn.Pos() || obj.Pos() >= pf.fn.End()
}

func (pf *poolFlow) isParam(obj types.Object) bool {
	for _, p := range pf.params {
		if p == obj {
			return true
		}
	}
	return false
}

// packetPkgPath is the import path of the pooled packet package.
const packetPkgPath = "marlin/internal/packet"

// poolSummaryOf computes (and memoizes) the ownership summary of fn. It
// returns nil when fn has no analyzable body or is part of a recursion
// cycle still being summarized.
func (prog *Program) poolSummaryOf(fn *types.Func) *poolSummary {
	if sum, ok := prog.poolSums[fn]; ok {
		return sum // nil while in progress: recursion degrades to unknown
	}
	fi := prog.FuncDeclOf(fn)
	if fi == nil || fi.Decl.Body == nil {
		prog.poolSums[fn] = nil
		return nil
	}
	prog.poolSums[fn] = nil // in-progress marker

	sig := fn.Type().(*types.Signature)
	fates := make([]paramFate, sig.Params().Len())
	var packetParams []types.Object
	paramAt := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isPacketPtr(p.Type()) {
			packetParams = append(packetParams, p)
			paramAt[p] = i
		}
	}
	if len(packetParams) == 0 {
		sum := &poolSummary{fates: fates}
		prog.poolSums[fn] = sum
		return sum
	}

	pf := &poolFlow{
		prog:         prog,
		info:         fi.Pkg.Info,
		fn:           fi.Decl,
		params:       packetParams,
		everConsumed: make(map[types.Object]bool),
		everEscaped:  make(map[types.Object]bool),
		exitStates:   make(map[types.Object][]poolState),
	}
	e := make(env[poolState], len(packetParams))
	for _, p := range packetParams {
		e[p] = poolBorrowed
	}
	w := &flowWalker[poolState]{info: fi.Pkg.Info, tr: pf}
	w.walk(fi.Decl.Body, e)

	for _, p := range packetParams {
		i := paramAt[p]
		switch {
		case pf.everEscaped[p]:
			fates[i] = fateUnknown
		case pf.everConsumed[p] && allConsumed(pf.exitStates[p]):
			fates[i] = fateConsumes
		case !pf.everConsumed[p]:
			fates[i] = fateBorrows
		default:
			fates[i] = fateUnknown
		}
	}
	sum := &poolSummary{fates: fates}
	prog.poolSums[fn] = sum
	return sum
}

// allConsumed reports whether every recorded exit saw the parameter in the
// consumed state (and that at least one exit was recorded).
func allConsumed(states []poolState) bool {
	if len(states) == 0 {
		return false
	}
	for _, st := range states {
		if st != poolConsumed {
			return false
		}
	}
	return true
}

// isPacketPtr reports whether t is *marlin/internal/packet.Packet.
func isPacketPtr(t types.Type) bool { return isPacketPkgPtr(t, "Packet") }

// isPacketPkgPtr reports whether t is a pointer to the packet package's
// named type name.
func isPacketPkgPtr(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil &&
		obj.Pkg().Path() == packetPkgPath
}
