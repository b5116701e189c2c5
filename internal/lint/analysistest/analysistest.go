// Package analysistest runs a lint analyzer over a fixture package under
// testdata/src/<dir> and checks its diagnostics against `// want` comments,
// in the style of golang.org/x/tools/go/analysis/analysistest (stdlib-only).
//
// Expectation syntax, on the line a diagnostic is expected:
//
//	code() // want "regexp" "second regexp"
//
// Every diagnostic on a line must match one of the line's regexps and every
// regexp must be matched by some diagnostic. Suppression is part of the
// contract being tested: a line carrying a valid //drtmr:allow directive and
// no want comment asserts the finding is silenced.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"drtmr/internal/lint/analysis"
)

var wantRE = regexp.MustCompile(`// want (.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads testdata/src/<dir> as package dir and compares the analyzer's
// diagnostics with the `// want` expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(testdata, "src", dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files in %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	pkg := Check(t, fset, dir, files, a)
	check(t, fset, pkg.Files, pkg.Diags)
}

// Check runs one analyzer, package filters bypassed, over the named files
// as package path. Imports resolve against the standard library's gc export
// data; type errors are logged and tolerated.
func Check(t *testing.T, fset *token.FileSet, path string, files []string, a *analysis.Analyzer) *analysis.Package {
	t.Helper()
	pkg, err := analysis.Check(fset, path, files, importer.ForCompiler(fset, "gc", nil), nil,
		[]*analysis.Analyzer{a}, analysis.Options{IgnoreFilters: true})
	if err != nil {
		t.Fatalf("analysis failed: %v", err)
	}
	for _, err := range pkg.TypeErrors {
		t.Logf("fixture type error (tolerated): %v", err)
	}
	return pkg
}

// expectation is the set of want regexps on one line.
type expectation struct {
	patterns []*regexp.Regexp
	matched  []bool
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[string]*expectation) // "file:line"
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				exp := &expectation{}
				for _, am := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(am[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, am[1], err)
					}
					exp.patterns = append(exp.patterns, re)
					exp.matched = append(exp.matched, false)
				}
				if len(exp.patterns) == 0 {
					t.Fatalf("%s: want comment with no quoted regexp", key)
				}
				wants[key] = exp
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		exp := wants[key]
		ok := false
		if exp != nil {
			for i, re := range exp.patterns {
				if re.MatchString(d.Message) {
					exp.matched[i] = true
					ok = true
					break
				}
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", key, d.Analyzer, d.Message)
		}
	}

	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		exp := wants[k]
		for i, hit := range exp.matched {
			if !hit {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, exp.patterns[i])
			}
		}
	}
}
