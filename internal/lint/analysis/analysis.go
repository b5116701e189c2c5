// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough of the Analyzer/Pass/Diagnostic
// surface for drtmr's own vet suite (internal/lint), so the analyzers read
// idiomatically while the repo stays free of external modules. Two drivers
// consume it: the analysistest-style fixture runner (lint/analysistest) and
// the `go vet -vettool` unit checker (lint/unitchecker).
//
// On top of the x/tools shape it bakes in the repo's suppression protocol:
// a finding is silenced by an adjacent
//
//	//drtmr:allow <analyzer> <reason>
//
// comment — on the same line as the finding or on the line directly above
// it. The reason is mandatory: a bare //drtmr:allow <analyzer> is itself a
// diagnostic, so every suppression in the tree documents why the invariant
// does not apply (DESIGN.md "Static invariants" has the policy).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //drtmr:allow directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by -flags/usage.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
	// PackageFilter restricts the analyzer to packages for which it
	// returns true (by import path). nil means every package. Drivers in
	// test mode bypass the filter so fixtures need not fake import paths.
	PackageFilter func(path string) bool
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts holds the interprocedural summaries lockorder reads (see
	// summary.go) for this package plus everything imported below it. Always
	// non-nil during Run.
	Facts *PkgFacts
	// Fixture is true under the analysistest driver: package-path-scoped
	// heuristics (e.g. lockorder's wire-I/O rule, normally limited to
	// internal/serve) apply unconditionally so fixtures can exercise them.
	Fixture bool

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowDirective is one parsed //drtmr:allow comment.
type allowDirective struct {
	pos      token.Pos
	line     int // line the directive appears on
	file     string
	analyzer string
	reason   string
	used     bool
}

var directiveRE = regexp.MustCompile(`^//drtmr:allow\b[ \t]*([^ \t]*)[ \t]*(.*)$`)

// parseDirectives collects every //drtmr:allow directive in the files.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*allowDirective {
	var out []*allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				// Fixture files pair a directive with a `// want` expectation
				// on the same line comment; the marker is not part of the
				// directive's reason.
				if i := strings.Index(text, "// want "); i > 0 {
					text = strings.TrimRight(text[:i], " \t")
				}
				m := directiveRE.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, &allowDirective{
					pos:      c.Pos(),
					line:     pos.Line,
					file:     pos.Filename,
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// Options configures a suite run.
type Options struct {
	// IgnoreFilters runs every analyzer on the package regardless of its
	// PackageFilter (fixture mode).
	IgnoreFilters bool
	// Facts supplies precomputed interprocedural summaries (with dependency
	// facts folded in, as the unitchecker does). When nil, Run summarizes
	// the package in isolation — sufficient for fixtures and same-package
	// propagation.
	Facts *PkgFacts
}

// Run executes the analyzers over one type-checked package, applies the
// //drtmr:allow suppression protocol, and returns the surviving diagnostics
// sorted by position. Directive hygiene (missing reason, unknown analyzer
// name) is reported as diagnostics of the pseudo-analyzer "allow".
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	facts := opts.Facts
	if facts == nil {
		facts = Summarize(files, pkg, info, nil)
	}
	var raw []Diagnostic
	for _, a := range analyzers {
		if !opts.IgnoreFilters && a.PackageFilter != nil && pkg != nil && !a.PackageFilter(pkg.Path()) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     facts,
			Fixture:   opts.IgnoreFilters,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	directives := parseDirectives(fset, files)
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Suppress: a directive covers findings of its analyzer on its own
	// line and on the next line (the "directly above" placement).
	var kept []Diagnostic
	for _, d := range raw {
		p := fset.Position(d.Pos)
		suppressed := false
		for _, dir := range directives {
			if dir.analyzer != d.Analyzer || dir.file != p.Filename {
				continue
			}
			if dir.line == p.Line || dir.line == p.Line-1 {
				dir.used = true
				if dir.reason != "" {
					suppressed = true
				}
				// A reason-less directive does NOT suppress: the finding
				// stays and the directive itself is flagged below.
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}

	// Directive hygiene.
	for _, dir := range directives {
		switch {
		case dir.analyzer == "":
			kept = append(kept, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: "//drtmr:allow needs an analyzer name and a reason"})
		case !known[dir.analyzer]:
			// Only flag names unknown to the full suite; a single-analyzer
			// test run must not reject directives for its siblings.
			if opts.IgnoreFilters && len(analyzers) == 1 && dir.analyzer != analyzers[0].Name {
				continue
			}
			kept = append(kept, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: fmt.Sprintf("//drtmr:allow names unknown analyzer %q", dir.analyzer)})
		case dir.reason == "":
			kept = append(kept, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: fmt.Sprintf("//drtmr:allow %s is missing the required reason", dir.analyzer)})
		}
	}

	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}
