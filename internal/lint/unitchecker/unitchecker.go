// Package unitchecker implements the (unpublished but stable) cmd/go vet
// tool protocol with only the standard library, in the spirit of
// golang.org/x/tools/go/analysis/unitchecker: cmd/go invokes the tool once
// per package with a JSON config file naming the source files and the export
// data of every dependency, and the tool type-checks the unit, runs its
// analyzers, and reports diagnostics on stderr (exit status 2).
//
// Protocol handled here:
//
//	drtmr-vet -V=full        print a version line (build cache tool ID)
//	drtmr-vet -flags         print the supported flags as JSON
//	drtmr-vet <dir>/vet.cfg  analyze one package unit
//
// Facts: drtmr packages export interprocedural summaries
// (analysis.PkgSummaries as JSON) through the vetx facts channel — a
// dependency unit (VetxOnly) for a drtmr package is parsed, type-checked and
// summarized so its dependents see its function behaviour and lock edges;
// stdlib dependency units are acknowledged with an empty facts file (their
// behaviour is synthesized from a table instead).
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"drtmr/internal/lint/analysis"
)

// Config is cmd/go's vet.cfg (cmd/go/internal/work.vetConfig). Fields we do
// not consume are kept for documentation value.
type Config struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoFiles    []string
	NonGoFiles []string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string
	GoVersion   string

	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool built on this package.
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])

	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	printVersion := fs.String("V", "", "print version and exit (cmd/go tool ID protocol)")
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON (cmd/go protocol)")
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, false, "enable only "+a.Name+": "+a.Doc)
	}
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-analyzer...] <vet.cfg>   (driven by go vet -vettool=%s)\n", progname, progname)
		fs.PrintDefaults()
	}
	// cmd/go passes -V=full as its own argument; tolerate it up front so
	// flag parsing never chokes on protocol probes.
	_ = fs.Parse(os.Args[1:])

	if *printVersion != "" {
		// The version line feeds cmd/go's tool ID (build cache key). cmd/go
		// requires `<name> version devel ... buildID=<id>`; hashing the
		// executable means rebuilding the tool invalidates cached vet runs.
		fmt.Printf("%s version devel buildID=%s\n", progname, selfHash())
		return
	}
	if *printFlags {
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		for _, a := range analyzers {
			out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
		}
		data, _ := json.Marshal(out)
		os.Stdout.Write(data)
		return
	}

	args := fs.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fs.Usage()
		os.Exit(1)
	}

	// Honor -<analyzer> selection: any set → run only those.
	run := analyzers
	var selected []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			selected = append(selected, a)
		}
	}
	if len(selected) > 0 {
		run = selected
	}

	diags, err := analyzeUnit(args[0], run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(2)
	}
}

// selfHash hashes the tool binary for the -V=full tool ID.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256=%x", h.Sum(nil)[:12])
}

// analyzeUnit runs the analyzers over one vet.cfg unit and returns rendered
// diagnostics ("file:line:col: analyzer: message").
func analyzeUnit(cfgPath string, analyzers []*analysis.Analyzer) ([]string, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}

	path := unitImportPath(&cfg)

	// Only drtmr packages carry computed facts; stdlib units are
	// acknowledged with an empty facts file and skipped.
	if !analysis.IsLocalModule(path) {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}

	emptyVetx := func() error {
		if cfg.VetxOutput != "" {
			return os.WriteFile(cfg.VetxOutput, []byte{}, 0o666)
		}
		return nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, emptyVetx()
			}
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{
		Importer:  newCfgImporter(&cfg, fset),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor("gc", buildGOARCH()),
	}
	pkg, err := tconf.Check(path, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, emptyVetx()
		}
		return nil, fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err)
	}

	// Fold in dependency facts, summarize, and export this unit's facts.
	deps := readDepFacts(&cfg)
	facts := analysis.Summarize(files, pkg, info, deps)
	if cfg.VetxOutput != "" {
		out, err := json.Marshal(facts.Export())
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.VetxOutput, out, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	diags, err := analysis.Run(fset, files, pkg, info, analyzers, analysis.Options{Facts: facts})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		p := fset.Position(d.Pos)
		out = append(out, fmt.Sprintf("%s:%d:%d: %s: %s", p.Filename, p.Line, p.Column, d.Analyzer, d.Message))
	}
	return out, nil
}

// readDepFacts loads every drtmr dependency's vetx facts file named in the
// unit config and merges them (empty files — stdlib acknowledgements or
// failed units — are skipped).
func readDepFacts(cfg *Config) *analysis.PkgSummaries {
	deps := &analysis.PkgSummaries{}
	for path, file := range cfg.PackageVetx {
		if !analysis.IsLocalModule(path) {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil || len(data) == 0 {
			continue
		}
		var ps analysis.PkgSummaries
		if err := json.Unmarshal(data, &ps); err != nil {
			continue
		}
		deps.Funcs = append(deps.Funcs, ps.Funcs...)
		deps.Edges = append(deps.Edges, ps.Edges...)
	}
	return deps
}

// unitImportPath strips cmd/go's test-variant suffix
// ("pkg [pkg.test]" → "pkg") so PackageFilter matching sees the real path.
func unitImportPath(cfg *Config) string {
	path := cfg.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

func buildGOARCH() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// cfgImporter resolves imports through the export data files cmd/go listed
// in the unit config, translating source import paths through ImportMap and
// feeding the gc importer's lookup protocol.
type cfgImporter struct {
	cfg        *Config
	underlying types.ImporterFrom
}

func newCfgImporter(cfg *Config, fset *token.FileSet) *cfgImporter {
	imp := &cfgImporter{cfg: cfg}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q in vet config", path)
		}
		return os.Open(file)
	}
	imp.underlying = importer.ForCompiler(fset, compilerName(cfg), lookup).(types.ImporterFrom)
	return imp
}

func compilerName(cfg *Config) string {
	if cfg.Compiler != "" {
		return cfg.Compiler
	}
	return "gc"
}

func (i *cfgImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, i.cfg.Dir, 0)
}

func (i *cfgImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if mapped, ok := i.cfg.ImportMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.underlying.ImportFrom(path, dir, mode)
}
