package lint

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelsMatchEngine type-checks the real internal/engine and requires
// that every eval method there is a vector kernel by isVecKernel's shape.
// purekernel and hotalloc find kernels by that shape alone, so a renamed
// vector type or a changed eval signature would otherwise switch both rules
// off without a single diagnostic.
func TestKernelsMatchEngine(t *testing.T) {
	dir := filepath.Join("..", "engine")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	cfg := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := cfg.Check("verdictdb/internal/engine", fset, files, info); err != nil {
		t.Fatalf("type-checking internal/engine: %v", err)
	}
	pass := &Pass{Fset: fset, Files: files, Info: info}
	kernels := 0
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "eval" {
				continue
			}
			if !isVecKernel(pass, fd) {
				t.Errorf("%s: eval method does not have the vector-kernel shape purekernel and hotalloc look for",
					fset.Position(fd.Pos()))
				continue
			}
			kernels++
		}
	}
	if kernels == 0 {
		t.Fatal("no vector kernel found in internal/engine: purekernel and hotalloc would check nothing")
	}
}
