// Package lint is verdictdb's in-tree static-analysis suite: a small
// go/analysis-style framework (the container build has no network access to
// golang.org/x/tools, so the driver and pass plumbing are implemented on the
// standard library alone) plus the repo-contract analyzers that keep the
// engine's determinism, lifecycle, and error guarantees refactor-proof.
//
// The analyzers encode invariants the paper-level guarantees depend on —
// byte-identical answers at any parallelism, unbiased partial answers,
// ctx-polled and budget-charged execution — as compiler-checked rules:
//
//   - detmaprange: no map iteration in order-sensitive engine/core code
//   - ctxpoll: chunk/row loops poll the lifecycle hooks; no stray
//     context.Background outside delegation shims
//   - budgetcharge: per-query growth on engine paths charges the budget
//   - errwrapis: sentinels wrap with %w and compare with errors.Is
//   - purekernel: compiled closures and vector kernels stay deterministic
//   - hotalloc: vector kernels and per-row closures do not allocate
//
// What the compiler or `go test -race` already enforces is left to them:
// typed atomics, accumulator merges, fault-site names (a faultpoint.Site
// type) and mutex discipline have no analyzer. Every analyzer reads one
// package at a time; none needs facts from its dependencies.
//
// A rule is suppressed at one site with a `//verdict:<token>` comment on the
// flagged line or the line directly above it (each analyzer documents its
// token). Suppressions are deliberate, greppable statements that a human
// checked the invariant by hand.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	Name string // short lowercase identifier, also the CLI flag name
	Doc  string // one-line contract description
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass is the per-package unit of work handed to each analyzer: parsed
// files, type information, and a Report sink. The same Pass value is shared
// by every analyzer run on the package (analyzers only read from it).
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Module is the module path the package belongs to ("" when unknown,
	// e.g. test fixtures). Module-scoped analyzers skip foreign modules so
	// a `go vet -vettool` run over stdlib dependencies stays quiet.
	Module string

	// Report receives diagnostics; the driver owns ordering and output.
	Report func(Diagnostic)

	annots map[*ast.File]map[int]map[string]bool
}

// Reportf reports a diagnostic at pos unless a `//verdict:<suppress>`
// annotation covers the line (suppress == "" means the rule has no escape
// hatch).
func (p *Pass) Reportf(pos token.Pos, suppress, format string, args ...any) {
	if suppress != "" && p.Suppressed(pos, suppress) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a `//verdict:token` comment annotates pos: on
// the same line, or on the line immediately above (a standalone annotation
// comment).
func (p *Pass) Suppressed(pos token.Pos, token string) bool {
	if !pos.IsValid() {
		return false
	}
	file := p.fileOf(pos)
	if file == nil {
		return false
	}
	lines := p.annotations(file)
	line := p.Fset.Position(pos).Line
	return lines[line][token] || lines[line-1][token]
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// annotations lazily indexes a file's `//verdict:` tokens by line.
func (p *Pass) annotations(f *ast.File) map[int]map[string]bool {
	if p.annots == nil {
		p.annots = map[*ast.File]map[int]map[string]bool{}
	}
	if m, ok := p.annots[f]; ok {
		return m
	}
	m := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//verdict:")
			if !ok {
				continue
			}
			// The token ends at the first space; what follows is the
			// human-readable justification.
			tok, _, _ := strings.Cut(text, " ")
			if tok = strings.TrimSpace(tok); tok == "" {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			if m[line] == nil {
				m[line] = map[string]bool{}
			}
			m[line][tok] = true
		}
	}
	p.annots[f] = m
	return m
}

// InModule reports whether the pass's package belongs to the verdictdb
// module (or to a fixture/unknown module, which module-scoped analyzers
// treat as in-scope so the analysistest harness exercises them).
func (p *Pass) InModule() bool {
	return p.Module == "" || p.Module == "verdictdb"
}

// PathIn reports whether the package's import path contains any of the
// given fragments. Fixture packages under internal/lint/testdata mirror the
// real layout (e.g. testdata/src/internal/engine/...), so path scoping
// behaves identically under go vet and under the test harness.
func (p *Pass) PathIn(fragments ...string) bool {
	path := p.Pkg.Path()
	for _, fr := range fragments {
		if strings.Contains(path, fr) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file containing pos is an _test.go file.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t) satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}

// All returns the full verdictlint suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		BudgetCharge,
		CtxPoll,
		DetMapRange,
		ErrWrapIs,
		HotAlloc,
		PureKernel,
	}
}
