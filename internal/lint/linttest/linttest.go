// Package linttest is the golden-file harness for verdictlint analyzers —
// the in-tree analogue of golang.org/x/tools/go/analysis/analysistest
// (which the offline build cannot vendor). Fixture packages live under
// internal/lint/testdata/src/ and mirror real import paths (e.g.
// testdata/src/internal/engine/cpoll), so path-scoped analyzers behave
// identically under the harness and under `go vet -vettool`.
//
// Expectations are `// want "regexp"` comments on the line a diagnostic
// should anchor to; several quoted regexps on one comment expect several
// diagnostics on that line. A diagnostic with no matching expectation, or
// an expectation no diagnostic matched, fails the test — so every golden
// case fails loudly if its analyzer is disabled or its rule regresses.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"verdictdb/internal/lint"
)

// Run loads the fixture package at testdata/src/<pkgPath> (relative to the
// calling test's working directory), runs the analyzer over it, and checks
// the diagnostics against the fixture's `// want` expectations. Fixtures
// import only the standard library.
func Run(t *testing.T, pkgPath string, a *lint.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	pkg, files, info, err := loadFixture(fset, filepath.Join("testdata", "src", pkgPath), pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}

	var diags []lint.Diagnostic
	pass := &lint.Pass{
		Fset:   fset,
		Files:  files,
		Pkg:    pkg,
		Info:   info,
		Module: "", // fixtures are module-agnostic; module-scoped rules stay active
		Report: func(d lint.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	checkExpectations(t, fset, files, diags)
}

// expectation is one `// want "re"` entry, keyed by file:line.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, q[1], err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

// loadFixture parses and type-checks the fixture package in dir, resolving
// its imports from GOROOT source.
func loadFixture(fset *token.FileSet, dir, pkgPath string) (*types.Package, []*ast.File, *types.Info, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tc := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := tc.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("typecheck: %w", err)
	}
	return pkg, files, info, nil
}
