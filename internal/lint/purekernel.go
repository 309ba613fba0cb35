package lint

import (
	"go/ast"
	"go/types"
)

// PureKernel keeps the hot paths deterministic: a compiled row closure or a
// vector kernel runs millions of times, interleaved across morsel workers,
// and its output must be a pure function of its inputs or byte-identical
// answers at any parallelism are gone. Inside kernel bodies this analyzer
// bans:
//
//   - time.Now / time.Since — wall-clock reads make output run-dependent;
//     capture timestamps once at query setup and close over the value
//   - global math/rand functions — the shared source is both nondeterministic
//     and lock-contended; seeded per-query sources passed in are fine
//   - `for range` over a map — iteration order varies per execution
//
// Kernel bodies are recognized structurally: function literals with the
// compiledExpr shape func(row []Value) (Value, error), and eval methods with
// the vector-node shape returning (*colVec, error). Suppress a finding with
// //verdict:impure <why>.
var PureKernel = &Analyzer{
	Name: "purekernel",
	Doc:  "no wall-clock, global rand, or map iteration inside compiled closures and vector kernels (suppress: //verdict:impure)",
	Run:  runPureKernel,
}

func runPureKernel(pass *Pass) error {
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
					checkKernelBody(pass, x.Body, "compiled closure")
					return false // inner literals are checked as part of this body
				}
			case *ast.FuncDecl:
				if isVecKernel(pass, x) {
					checkKernelBody(pass, x.Body, "vector kernel")
					return false
				}
			}
			return true
		})
	}
	return nil
}

// isCompiledExprSig matches func(row []Value) (Value, error).
func isCompiledExprSig(sig *types.Signature) bool {
	if sig.Recv() != nil || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	if !isValueRow(sig.Params().At(0).Type()) {
		return false
	}
	return isNamed(sig.Results().At(0).Type(), "Value") && implementsError(sig.Results().At(1).Type())
}

// isVecKernel matches a vector kernel: an eval method of the vnode shape,
// results (*colVec, error). Both kernel rules find kernels by this shape
// alone; TestKernelsMatchEngine fails if it stops matching the engine's.
func isVecKernel(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "eval" || fd.Body == nil {
		return false
	}
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 2 {
		return false
	}
	res0, ok := sig.Results().At(0).Type().(*types.Pointer)
	return ok && isNamed(res0, "colVec") && implementsError(sig.Results().At(1).Type())
}

func checkKernelBody(pass *Pass, body *ast.BlockStmt, kind string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "impure",
						"map iteration inside a %s is order-nondeterministic per execution; iterate sorted keys or annotate //verdict:impure with why order cannot leak", kind)
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(pass, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					pass.Reportf(x.Pos(), "impure",
						"time.%s inside a %s makes output run-dependent; capture the clock once at query setup and close over the value", fn.Name(), kind)
				}
			case "math/rand", "math/rand/v2":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					pass.Reportf(x.Pos(), "impure",
						"global %s.%s inside a %s is nondeterministic and contended; thread a per-query seeded source instead", fn.Pkg().Name(), fn.Name(), kind)
				}
			}
		}
		return true
	})
}
