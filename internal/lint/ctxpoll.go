package lint

import (
	"go/ast"
	"go/types"
)

// CtxPoll enforces the query-lifecycle contract from PR 6: engine execution
// must observe cancellation, deadlines, and memory-budget overruns promptly,
// and context plumbing must not be short-circuited.
//
// Rule 1 (internal/engine): every `for range` loop over per-row or
// per-chunk data ([]*chunk, [][]Value) that does real work must
// call the lifecycle.go hooks — qc.tick() / qc.pollAbort() — either
// directly in the loop body or through a helper/closure it calls that
// invokes a hook directly (one level deep: the hooks belong AT the loop,
// not buried down a call chain where a refactor can silently detach them).
// Loops that are chunk-bounded (ranging over ch.rows() of one chunk) or do
// O(1) work per element (no calls, no nested loops) are exempt; anything
// else needs a `//verdict:nopoll <why>` annotation.
//
// Rule 2 (internal/engine + internal/core): context.Background() and
// context.TODO() may appear only in the documented context-free delegation
// shims — functions whose whole body is a single return delegating to the
// Context-taking variant — or under a `//verdict:ctx-shim <why>`
// annotation. Anywhere else they detach execution from the caller's
// cancellation and budget.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "engine row/chunk loops must call the lifecycle poll hooks; no stray context.Background (suppress: //verdict:nopoll, //verdict:ctx-shim)",
	Run:  runCtxPoll,
}

// pollHookNames are the lifecycle.go cooperative-abort hooks.
var pollHookNames = map[string]bool{"pollAbort": true, "tick": true}

func runCtxPoll(pass *Pass) error {
	if !pass.PathIn("internal/engine", "internal/core") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		checkBackgroundCalls(pass, f)
	}
	if !pass.PathIn("internal/engine") {
		return nil
	}
	// pollers: package functions whose body calls a hook directly, so a
	// loop calling them polls at depth one.
	pollers := directPollers(pass)
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		checkLoops(pass, f, pollers)
	}
	return nil
}

// checkBackgroundCalls flags context.Background/TODO outside delegation
// shims.
func checkBackgroundCalls(pass *Pass, f *ast.File) {
	walkPath(f, func(n ast.Node, path []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() != "Background" && fn.Name() != "TODO" {
			return true
		}
		if inDelegationShim(path) {
			return true
		}
		pass.Reportf(call.Pos(), "ctx-shim",
			"context.%s() outside a top-level delegation shim detaches execution from the caller's cancellation/budget; thread ctx or annotate //verdict:ctx-shim with why", fn.Name())
		return true
	})
}

// inDelegationShim reports whether the path's innermost function is a
// context-free delegation shim: a body that is exactly one return statement
// (e.g. `return e.QueryContext(context.Background(), sql)`).
func inDelegationShim(path []ast.Node) bool {
	for i := len(path) - 1; i >= 0; i-- {
		var body *ast.BlockStmt
		switch fd := path[i].(type) {
		case *ast.FuncDecl:
			body = fd.Body
		case *ast.FuncLit:
			body = fd.Body
		default:
			continue
		}
		if body == nil || len(body.List) != 1 {
			return false
		}
		_, isReturn := body.List[0].(*ast.ReturnStmt)
		return isReturn
	}
	return false
}

// directPollers collects package-level functions and methods (plus, per
// enclosing function, local closures — handled separately in loopPolls)
// whose bodies call tick/pollAbort directly.
func directPollers(pass *Pass) map[*types.Func]bool {
	pollers := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if callsHookDirectly(pass, fd.Body) {
				pollers[obj] = true
			}
		}
	}
	return pollers
}

// callsHookDirectly reports whether body contains a call to a poll hook
// (a method named tick/pollAbort), not counting nested function literals —
// a closure that polls only polls when *it* runs.
func callsHookDirectly(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass, call); fn != nil && fn.Type().(*types.Signature).Recv() != nil && pollHookNames[fn.Name()] {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkLoops flags row/chunk-scale range loops that never reach a poll
// hook.
func checkLoops(pass *Pass, f *ast.File, pollers map[*types.Func]bool) {
	// Local closures of each function that poll directly count as hooks at
	// depth one; gather them per file walk.
	localPollers := map[types.Object]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil && callsHookDirectly(pass, lit.Body) {
				localPollers[obj] = true
			}
		}
		return true
	})

	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !rowScaleRange(pass, rs) {
			return true
		}
		if trivialBody(rs.Body) {
			return true
		}
		if loopPolls(pass, rs.Body, pollers, localPollers) {
			return true
		}
		pass.Reportf(rs.Pos(), "nopoll",
			"row/chunk-scale loop never calls the lifecycle poll hooks (qc.tick/qc.pollAbort); cancellation and memory budgets go unobserved here — poll in the loop or annotate //verdict:nopoll with why")
		return true
	})
}

// rowScaleRange reports whether rs ranges over data that scales with the
// relation: []*chunk or [][]Value. Ranging over one chunk's row
// view (ch.rows()) is chunk-bounded and exempt — its caller polls per
// chunk.
func rowScaleRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem := sl.Elem()
	switch {
	case isNamed(elem, "chunk"):
	case isValueRow(elem):
		// Exempt `range ch.rows()`: bounded by one chunk.
		if call, ok := ast.Unparen(rs.X).(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "rows" {
				if recv := pass.Info.TypeOf(sel.X); recv != nil && isNamed(recv, "chunk") {
					return false
				}
			}
		}
	default:
		return false
	}
	return true
}

// isNamed reports whether t is the named type (or pointer to it) with the
// given base name.
func isNamed(t types.Type, name string) bool {
	n := namedOrPointee(t)
	return n != nil && n.Obj().Name() == name
}

// isValueRow reports whether t is []Value — one boxed row.
func isValueRow(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isNamed(sl.Elem(), "Value")
}

// trivialBody reports whether the loop body does O(1) bookkeeping per
// element: no calls (builtins aside) and no nested loops.
func trivialBody(body *ast.BlockStmt) bool {
	trivial := true
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			trivial = false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "len", "cap", "append", "make", "max", "min", "int", "int64", "int32", "float64", "string":
					return true
				}
			}
			trivial = false
		}
		return trivial
	})
	return trivial
}

// loopPolls reports whether the loop body reaches a poll hook at depth one:
// a direct hook call, a call to a package function that polls directly, or
// a call to a local closure that polls directly.
func loopPolls(pass *Pass, body *ast.BlockStmt, pollers map[*types.Func]bool, localPollers map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass, call); fn != nil {
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil && pollHookNames[fn.Name()] {
				found = true
			}
			if pollers[fn] {
				found = true
			}
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && localPollers[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
