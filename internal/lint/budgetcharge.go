package lint

import (
	"go/ast"
	"go/types"
)

// BudgetCharge enforces the memory-accounting contract of the engine's
// query budget (queryCtx.chargeMem / memGauge.add): any function on the
// engine's execution paths that grows per-query state without bound —
// appending to struct-field slices, inserting into maps, growing map- or
// slice-element buckets — must account for that growth against the budget,
// either by charging in-function or by calling a helper that (transitively)
// charges. Otherwise a hostile or merely large query blows past
// vd_mem_budget silently, which defeats the reason the budget exists:
// ErrMemoryBudget instead of the OOM killer.
//
// "Charges" is a transitive property: a local fixpoint propagates it
// through same-package call chains. The rule binds internal/engine only,
// and nothing engine imports is in its scope, so no charging helper lives
// in another package. Growth that is genuinely bounded (fixed-size ring, value
// overwritten in place, state charged by the single caller) is annotated
// //verdict:nocharge <why>.
var BudgetCharge = &Analyzer{
	Name: "budgetcharge",
	Doc:  "unbounded growth on engine exec paths must charge the query memory budget, directly or via a charging helper (suppress: //verdict:nocharge)",
	Run:  runBudgetCharge,
}

func runBudgetCharge(pass *Pass) error {
	if !pass.InModule() {
		return nil
	}
	// The budget contract binds the engine's execution paths; other
	// packages charge through engine entry points or not at all.
	if !pass.PathIn("internal/engine") {
		return nil
	}

	// Collect package function declarations.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// Seed: functions that charge directly, plus the local call graph for
	// the fixpoint.
	charges := map[*types.Func]bool{}
	callees := map[*types.Func][]*types.Func{}
	for fn, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil {
				return true
			}
			if isChargePrimitive(callee) {
				charges[fn] = true
				return true
			}
			if _, local := decls[callee]; local {
				callees[fn] = append(callees[fn], callee)
			}
			return true
		})
	}

	// Fixpoint: charging propagates caller-ward through local calls.
	for changed := true; changed; {
		changed = false
		for fn := range decls {
			if charges[fn] {
				continue
			}
			for _, c := range callees[fn] {
				if charges[c] {
					charges[fn] = true
					changed = true
					break
				}
			}
		}
	}

	// Every growth site inside a non-charging function is unaccounted.
	for fn, fd := range decls {
		if charges[fn] || pass.isTestFile(fd.Pos()) {
			continue
		}
		fnName := fd.Name.Name
		// Closure bodies are walked as part of the enclosing declaration:
		// they share its (non-)charging verdict.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			site := growthSite(pass, as)
			if site == "" {
				return true
			}
			pass.Reportf(as.Pos(), "nocharge",
				"%s in %s grows per-query state but no call path from this function reaches qc.chargeMem/memGauge.add; charge the estimated bytes or annotate //verdict:nocharge with why growth is bounded",
				site, fnName)
			return true
		})
	}
	return nil
}

// isChargePrimitive reports whether fn is one of the budget's charging
// entry points: queryCtx.chargeMem or memGauge.add.
func isChargePrimitive(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := namedOrPointee(sig.Recv().Type())
	if recv == nil {
		return false
	}
	switch {
	case fn.Name() == "chargeMem" && recv.Obj().Name() == "queryCtx":
		return true
	case fn.Name() == "add" && recv.Obj().Name() == "memGauge":
		return true
	}
	return false
}

// growthSite classifies an assignment as unbounded per-query growth and
// returns a short description, or "" if it is not one. Recognized shapes:
//
//	x.f = append(x.f, ...)   struct state grows per row
//	m[k] = append(m[k], ...) map/slice bucket grows per row
//	x.f[k] = v               field map gains a key per distinct value
func growthSite(pass *Pass, as *ast.AssignStmt) string {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return ""
	}
	lhs := ast.Unparen(as.Lhs[0])
	rhs := ast.Unparen(as.Rhs[0])

	if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			if fv := fieldOf(pass, l); fv != nil {
				return "append to field " + exprString(pass, l)
			}
		case *ast.IndexExpr:
			return "append into element " + exprString(pass, l)
		}
		return ""
	}

	// Map insert through a field: x.f[k] = v.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if t := pass.Info.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr); ok && fieldOf(pass, sel) != nil {
					return "insert into field map " + exprString(pass, sel)
				}
			}
		}
	}
	return ""
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
