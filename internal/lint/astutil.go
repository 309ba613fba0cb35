package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
)

// walkPath is ast.Inspect with the ancestor chain: fn receives each node and
// the path of enclosing nodes (outermost first, excluding n itself).
// Returning false skips the subtree.
func walkPath(root ast.Node, fn func(n ast.Node, path []ast.Node) bool) {
	var path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		if !fn(n, path) {
			// ast.Inspect still sends the matching nil pop only when we
			// descend, so balance the stack by not pushing.
			return false
		}
		path = append(path, n)
		return true
	})
}

// containsNode reports whether needle appears within root.
func containsNode(root, needle ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == needle {
			found = true
		}
		return !found
	})
	return found
}

// exprString renders a (short) expression for diagnostics.
func exprString(pass *Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return "?"
	}
	s := buf.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

// calleeFunc resolves a call to its static *types.Func (package function or
// concrete/interface method), or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// namedOrPointee unwraps one pointer level and returns the *types.Named
// beneath, or nil.
func namedOrPointee(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// fieldOf resolves a selector to the struct field it selects, or nil.
func fieldOf(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	selection, ok := pass.Info.Selections[sel]
	if !ok {
		return nil
	}
	fv, ok := selection.Obj().(*types.Var)
	if !ok || !fv.IsField() {
		return nil
	}
	return fv
}
