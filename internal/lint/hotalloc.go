package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc bans per-lane allocation in the engine's hottest code: the
// bodies of vectorized kernels (eval methods returning (*colVec, error)),
// compiled row closures (func([]Value) (Value, error)), and selection-
// vector loops (`for ... range sel` over []int32) that the morsel workers
// drive once per surviving lane. An allocation there is multiplied by the
// row count and shows up directly in BENCH_engine.json allocs_per_op —
// the per-batch amortization the vectorized design exists to buy.
//
// Inside a per-lane loop the analyzer flags:
//
//   - composite literals — a fresh object per lane; hoist it out
//   - non-constant string concatenation — builds a new string per lane
//   - boxing a concrete value into an interface element or via explicit
//     conversion (Value = any, so `out[i] = lanes[i]` is an allocation)
//   - append to a slice not prepared in-function with make(cap) or a
//     [:0] reslice — amortized growth reallocates mid-batch
//
// A deliberate allocation (error path, once-per-batch spill) is annotated
// //verdict:alloc <why>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no per-lane allocation (composite literals, string concat, interface boxing, unsized append) inside vector kernels and selection loops (suppress: //verdict:alloc)",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	if !pass.PathIn("internal/engine") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				if sig, ok := pass.Info.TypeOf(x).(*types.Signature); ok && isCompiledExprSig(sig) {
					// A compiled closure runs once per row: its whole body
					// is lane-hot, loop or not.
					checkHotBody(pass, x.Body, preparedSlices(pass, x.Body), "compiled closure")
					return false
				}
			case *ast.FuncDecl:
				if isVecKernel(pass, x) {
					checkKernelLoops(pass, x.Body, "vector kernel")
					return false
				}
			case *ast.RangeStmt:
				if isSelectionRange(pass, x) {
					prepared := preparedSlices(pass, enclosingBody(f, x))
					checkHotBody(pass, x.Body, prepared, "selection loop")
					return false
				}
			}
			return true
		})
	}
	return nil
}

// checkKernelLoops applies the per-lane rules to every loop body inside a
// vector kernel. Straight-line kernel code runs once per batch and may
// allocate (the output vector itself, for one); only the loops are per-lane.
func checkKernelLoops(pass *Pass, body *ast.BlockStmt, kind string) {
	prepared := preparedSlices(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			checkHotBody(pass, l.Body, prepared, kind+" loop")
			return false
		case *ast.RangeStmt:
			checkHotBody(pass, l.Body, prepared, kind+" loop")
			return false
		}
		return true
	})
}

// isSelectionRange reports whether rs ranges over a selection vector
// ([]int32 of surviving lane indexes) — the engine's morsel inner loop.
func isSelectionRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int32
}

// preparedSlices collects objects the body readies for amortized growth:
// `v := make(T, len, cap)` and `v = v[:0]` (ring reuse). Appending to these
// inside a lane loop stays allocation-free until the prepared capacity is
// exhausted, which is the caller's sizing contract, not a per-lane cost.
func preparedSlices(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	prepared := map[types.Object]bool{}
	if body == nil {
		return prepared
	}
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				prepared[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				prepared[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			switch r := ast.Unparen(rhs).(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "make" && len(r.Args) == 3 {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						mark(as.Lhs[i])
					}
				}
			case *ast.SliceExpr:
				// v = v[:0] — reusing retained capacity.
				if r.High != nil && isZeroLit(r.High) && r.Low == nil {
					mark(as.Lhs[i])
				}
			}
		}
		return true
	})
	return prepared
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}

// enclosingBody returns the body of the innermost function declaration or
// literal in f that contains n, for prepared-slice scanning.
func enclosingBody(f *ast.File, n ast.Node) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(f, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if m.Pos() > n.Pos() || m.End() < n.End() {
			return m.Pos() <= n.Pos() && m.End() >= n.End()
		}
		switch d := m.(type) {
		case *ast.FuncDecl:
			if d.Body != nil && d.Body.Pos() <= n.Pos() && d.Body.End() >= n.End() {
				body = d.Body
			}
		case *ast.FuncLit:
			if d.Body.Pos() <= n.Pos() && d.Body.End() >= n.End() {
				body = d.Body
			}
		}
		return true
	})
	return body
}

// checkHotBody applies the per-lane allocation rules to one hot region.
func checkHotBody(pass *Pass, body *ast.BlockStmt, prepared map[types.Object]bool, kind string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			pass.Reportf(x.Pos(), "alloc",
				"composite literal inside a %s allocates per lane; hoist the value out of the loop or annotate //verdict:alloc with why it is cold", kind)
		case *ast.BinaryExpr:
			if x.Op.String() == "+" && isStringConcat(pass, x) {
				pass.Reportf(x.Pos(), "alloc",
					"string concatenation inside a %s builds a new string per lane; precompute it or annotate //verdict:alloc with why it is cold", kind)
			}
		case *ast.CallExpr:
			checkHotCall(pass, x, prepared, kind)
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i < len(x.Rhs) {
					checkBoxingStore(pass, lhs, x.Rhs[i], kind)
				}
			}
		}
		return true
	})
}

// isStringConcat reports whether x is a non-constant string concatenation.
func isStringConcat(pass *Pass, x *ast.BinaryExpr) bool {
	tv, ok := pass.Info.Types[x]
	if !ok || tv.Value != nil { // constant-folded at compile time
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkHotCall flags unsized appends and explicit interface conversions.
func checkHotCall(pass *Pass, call *ast.CallExpr, prepared map[types.Object]bool, kind string) {
	// Explicit conversion to an interface type: I(x) with concrete x.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type.Underlying()) {
			if at := pass.Info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at.Underlying()) {
				pass.Reportf(call.Pos(), "alloc",
					"converting %s to %s inside a %s boxes per lane; keep lanes typed or annotate //verdict:alloc with why this is cold",
					at, tv.Type, kind)
			}
		}
		return
	}
	if !isBuiltinAppend(pass, call) || len(call.Args) == 0 {
		return
	}
	// append into an interface-element slice boxes each appended value.
	if st := pass.Info.TypeOf(call.Args[0]); st != nil && call.Ellipsis == 0 {
		if sl, ok := st.Underlying().(*types.Slice); ok && types.IsInterface(sl.Elem().Underlying()) {
			for _, arg := range call.Args[1:] {
				if at := pass.Info.TypeOf(arg); at != nil && !types.IsInterface(at.Underlying()) {
					pass.Reportf(arg.Pos(), "alloc",
						"appending concrete %s into %s inside a %s boxes per lane; keep lanes typed or annotate //verdict:alloc with why this is cold",
						at, st, kind)
				}
			}
		}
	}
	// Unsized append: growth target not prepared with capacity in-function.
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if obj := pass.Info.Uses[id]; obj != nil && prepared[obj] {
			return
		}
	}
	pass.Reportf(call.Pos(), "alloc",
		"append inside a %s without make(..., 0, cap) or a [:0] reslice in this function reallocates mid-batch; presize the buffer or annotate //verdict:alloc with why growth is bounded", kind)
}

// checkBoxingStore flags `dst = v` where dst has interface type (directly,
// or as an element of []Value) and v is concrete — implicit boxing.
func checkBoxingStore(pass *Pass, lhs, rhs ast.Expr, kind string) {
	lt := pass.Info.TypeOf(lhs)
	rt := pass.Info.TypeOf(rhs)
	if lt == nil || rt == nil {
		return
	}
	if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); !ok {
		return // only element stores: locals of interface type are rare and cheap to audit by eye
	}
	if !types.IsInterface(lt.Underlying()) || types.IsInterface(rt.Underlying()) {
		return
	}
	if isUntypedNil(pass, rhs) {
		return
	}
	pass.Reportf(lhs.Pos(), "alloc",
		"storing concrete %s into interface element %s inside a %s boxes per lane; keep lanes typed or annotate //verdict:alloc with why this is cold",
		rt, exprString(pass, lhs), kind)
}

func isUntypedNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.IsNil()
}
