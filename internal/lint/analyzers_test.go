package lint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"drtmr/internal/lint"
	"drtmr/internal/lint/analysis"
)

// listedPackage is what checkModule reads of one `go list -json` record.
type listedPackage struct {
	Dir, ImportPath, Name, ForTest, Export string
	GoFiles, IgnoredGoFiles                []string
	ImportMap                              map[string]string
	Deps                                   []string
	Module                                 *struct{ Main bool }
}

// checkModule runs the analyzer suite over every package of the module at
// root: each package, its in-package tests and its external test package,
// type-checked against gc export data in dependency order, and again with
// the race build tag wherever that changes a unit's files. It returns the
// unsuppressed findings as "file:line:col: analyzer: message", file relative
// to root, and the number of units it checked.
func checkModule(t *testing.T, root string) (findings []string, units int) {
	t.Helper()
	list := exec.Command("go", "list", "-export", "-deps", "-test", "-json", "./...")
	list.Dir = root
	var stderr bytes.Buffer
	list.Stderr = &stderr
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	exports := make(map[string]string)
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		// A "p.test" record is the generated test main; it has no source here.
		if p.Module != nil && p.Module.Main && !strings.HasSuffix(p.ImportPath, ".test") {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	facts := make(map[string]*analysis.PkgFacts)
	seen := make(map[string]bool)
	check := func(p *listedPackage, files []string) *analysis.PkgFacts {
		units++
		// Import by real path, not by the "p [q.test]" ID the import map
		// names, so types keep the path their summaries are keyed by.
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if id, ok := p.ImportMap[path]; ok {
				path = id
			}
			return os.Open(exports[path])
		})
		var deps []*analysis.PkgFacts
		for _, id := range p.Deps {
			if f := facts[id]; f != nil {
				deps = append(deps, f)
			}
		}
		var paths []string
		for _, f := range files {
			paths = append(paths, filepath.Join(p.Dir, f))
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		pkg, err := analysis.Check(fset, path, paths, imp, deps, lint.Analyzers, analysis.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
		for _, err := range pkg.TypeErrors {
			t.Errorf("%s: %v", p.ImportPath, err)
		}
		for _, d := range pkg.Diags {
			pos := fset.Position(d.Pos)
			file, _ := filepath.Rel(root, pos.Filename)
			f := fmt.Sprintf("%s:%d:%d: %s: %s", file, pos.Line, pos.Column, d.Analyzer, d.Message)
			if !seen[f] {
				seen[f] = true
				findings = append(findings, f)
			}
		}
		return pkg.Facts
	}

	raceDirs := make(map[string]bool)
	for _, p := range pkgs {
		facts[p.ImportPath] = check(p, p.GoFiles)
		if len(p.IgnoredGoFiles) > 0 {
			raceDirs[p.Dir] = true
		}
	}
	race := build.Default
	race.BuildTags = []string{"race"}
	for _, p := range pkgs {
		if !raceDirs[p.Dir] {
			continue
		}
		bp, err := race.ImportDir(p.Dir, 0)
		if err != nil {
			t.Fatalf("%s under the race tag: %v", p.Dir, err)
		}
		files := bp.GoFiles
		switch {
		case strings.HasSuffix(p.Name, "_test"):
			files = bp.XTestGoFiles
		case p.ForTest != "" && strings.HasPrefix(p.ImportPath, p.ForTest+" ["):
			files = append(files, bp.TestGoFiles...)
		}
		if !slices.Equal(files, p.GoFiles) {
			check(p, files)
		}
	}
	return findings, units
}

// TestAnalyzers is the analyzers' tier-1 run: over the whole module, under
// both halves of its race/!race build-tag pairs, every finding is fixed or
// carries a reasoned //drtmr:allow.
func TestAnalyzers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, units := checkModule(t, root)
	t.Logf("checked %d units", units)
	for _, f := range findings {
		t.Error(f)
	}
}

// TestAnalyzersCrossPackage runs checkModule over a module whose lockorder
// finding needs another package's facts: internal/txn holds a mutex across
// a call into internal/sim, which sends on a channel. Summarizing each
// package on its own would miss it. cmd/x, outside every
// analyzer's package filter, carries a //drtmr:allow naming no analyzer,
// which is reported wherever it sits.
func TestAnalyzersCrossPackage(t *testing.T) {
	mod := t.TempDir()
	for rel, src := range map[string]string{
		"go.mod":              "module drtmr\n\ngo 1.22\n",
		"internal/sim/sim.go": "package sim\n\nfunc Park(ch chan int) { ch <- 1 }\n",
		"internal/txn/txn.go": `package txn

import (
	"sync"

	"drtmr/internal/sim"
)

var mu sync.Mutex

func Commit(ch chan int) {
	mu.Lock()
	sim.Park(ch)
	mu.Unlock()
}
`,
		"cmd/x/main.go": "package main\n\n//drtmr:allow nosuch reason\nfunc main() {}\n",
	} {
		file := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(file), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	findings, _ := checkModule(t, mod)
	want := []string{
		`cmd/x/main.go:3:1: allow: //drtmr:allow names unknown analyzer "nosuch"`,
		"internal/txn/txn.go:13:2: lockorder: txn.mu held across call to sim.Park, which may yield (via channel send)",
	}
	slices.Sort(findings)
	if !slices.Equal(findings, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(findings, "\n"), strings.Join(want, "\n"))
	}
}
