package lint

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
)

// This file implements the `go vet -vettool` driver protocol (the same
// contract golang.org/x/tools/go/analysis/unitchecker speaks, rebuilt on the
// standard library): the go command invokes the tool once per package with a
// JSON .cfg file naming the source files and the export data of every
// dependency, and expects
//
//   - `tool -V=full`  → a reproducible version line (build cache key)
//   - `tool -flags`   → a JSON description of supported flags
//   - `tool pkg.cfg`  → diagnostics on stderr, non-zero exit when any fired,
//     and a .vetx output file so the go command can cache the run.
//
// No analyzer exports facts, so every .vetx file is empty.
//
// Invoked with package patterns instead of a .cfg file, the driver re-execs
// itself through `go vet -vettool=<self>`, so `verdictlint ./...` works
// standalone with identical semantics.

// vetConfig mirrors the fields of the go command's vet config that the
// driver consumes. Unknown fields are ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point of cmd/verdictlint.
func Main(analyzers []*Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("verdictlint: ")

	enabled := map[string]*bool{}
	for _, a := range analyzers {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	flag.Var(versionFlag{}, "V", "print version and exit (go vet protocol)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "verdictlint: verdictdb's invariant checkers\n\n")
		fmt.Fprintf(os.Stderr, "usage: verdictlint [packages...]   # standalone, runs go vet -vettool\n")
		fmt.Fprintf(os.Stderr, "       go vet -vettool=$(which verdictlint) [packages...]\n\nrules:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *printFlags {
		// The go command asks for the flag inventory up front so it can
		// forward user-supplied analyzer flags.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		for _, a := range analyzers {
			out = append(out, jsonFlag{a.Name, true, a.Doc})
		}
		data, err := json.Marshal(out)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		os.Exit(0)
	}

	args := flag.Args()
	if len(args) == 1 && filepath.Ext(args[0]) == ".cfg" {
		var active []*Analyzer
		for _, a := range analyzers {
			if *enabled[a.Name] {
				active = append(active, a)
			}
		}
		runConfig(args[0], active)
		return
	}

	// Standalone: delegate to go vet so package loading, build tags, and
	// test variants match the real build exactly.
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		log.Fatal(err)
	}
}

// versionFlag implements -V=full: the go command hashes the output into its
// action cache key, so it must identify this exact binary.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return false }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported flag value: -V=%s", s)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(self)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel buildID=%02x\n", self, h.Sum(nil))
	os.Exit(0)
	return nil
}

// goMinorVersion trims a toolchain version like "go1.24.0" to the
// major.minor form go/types accepts.
var goMinorVersion = regexp.MustCompile(`^go\d+\.\d+`)

// runConfig analyzes the single package described by cfgFile and exits.
func runConfig(cfgFile string, analyzers []*Analyzer) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", cfgFile, err)
	}

	// A dependency is vetted only for the facts it would export, and there
	// are none: its empty .vetx is the whole answer.
	writeVetx(cfg)
	if cfg.VetxOnly {
		os.Exit(0)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	parseFailed := false
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			parseFailed = true
			break
		}
		files = append(files, f)
	}

	var pkg *types.Package
	info := newInfo()
	if !parseFailed {
		pkg, err = typecheck(fset, files, info, cfg)
	}
	if parseFailed || err != nil {
		// The go command sets SucceedOnTypecheckFailure when the compiler
		// itself will report the errors; duplicate noise helps nobody.
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		log.Fatalf("typechecking %s failed: %v", cfg.ImportPath, err)
	}

	diags := runAnalyzers(analyzers, &Pass{
		Fset:   fset,
		Files:  files,
		Pkg:    pkg,
		Info:   info,
		Module: cfg.ModulePath,
	})

	if len(diags) == 0 {
		os.Exit(0)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s\n", relativize(pos), d.Message)
	}
	os.Exit(2)
}

// runAnalyzers runs every analyzer over the pass and returns the combined
// diagnostics in file/position order.
func runAnalyzers(analyzers []*Analyzer, pass *Pass) []Diagnostic {
	var diags []Diagnostic
	pass.Report = func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s: %v", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// newInfo allocates a types.Info with every map analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// typecheck type-checks the package against the export data the go command
// staged for its dependencies.
func typecheck(fset *token.FileSet, files []*ast.File, info *types.Info, cfg *vetConfig) (*types.Package, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(importPath)
	})
	tc := &types.Config{
		Importer:  imp,
		GoVersion: goMinorVersion.FindString(cfg.GoVersion),
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
	}
	return tc.Check(cfg.ImportPath, fset, files, info)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// writeVetx writes the empty analysis output the go command expects for
// every package it vets (dependents would otherwise find no .vetx file).
func writeVetx(cfg *vetConfig) {
	if cfg.VetxOutput == "" {
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		log.Fatal(err)
	}
}

// relativize shortens an absolute diagnostic position to the working
// directory when possible, matching go vet's own output style.
func relativize(pos token.Position) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !filepath.IsAbs(rel) && rel[0] != '.' {
			pos.Filename = rel
		}
	}
	return pos.String()
}
