package lint_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"drtmr/internal/lint"
	"drtmr/internal/lint/analysis"
)

// runAnalyzer type-checks one in-memory source file and runs a single
// analyzer over it with package filters bypassed.
func runAnalyzer(t *testing.T, a *analysis.Analyzer, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "seed.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing seeded source: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(error) {},
	}
	pkg, _ := conf.Check("seed", fset, []*ast.File{f}, info)
	diags, err := analysis.Run(fset, []*ast.File{f}, pkg, info,
		[]*analysis.Analyzer{a}, analysis.Options{IgnoreFilters: true})
	if err != nil {
		t.Fatalf("analysis failed: %v", err)
	}
	return diags
}

// expectTeeth runs the analyzer over a clean shape and a seeded mutation of
// it, requiring the clean variant to come back silent and the mutation to
// produce a finding matching wantSubstr — the self-test that each analyzer
// would catch a regression of the real repo shape it mirrors.
func expectTeeth(t *testing.T, a *analysis.Analyzer, clean, mutated, wantSubstr string) {
	t.Helper()
	if diags := runAnalyzer(t, a, clean); len(diags) != 0 {
		t.Errorf("%s: clean shape produced findings: %v", a.Name, diags)
	}
	diags := runAnalyzer(t, a, mutated)
	if len(diags) == 0 {
		t.Fatalf("%s: seeded mutation produced no finding (analyzer has no teeth)", a.Name)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, wantSubstr) {
			return
		}
	}
	t.Errorf("%s: no finding matches %q, got %v", a.Name, wantSubstr, diags)
}

// TestLockOrderTeeth mirrors internal/serve's per-connection write path:
// conn.wmu intentionally serializes whole frames across the socket write
// and carries a reasoned allow. Strip the allow and the wire-I/O rule must
// fire — the regression the audited directive is protecting.
func TestLockOrderTeeth(t *testing.T) {
	const body = `package seed

import (
	"io"
	"sync"
)

type conn struct {
	w   io.Writer
	wmu sync.Mutex
}

func (c *conn) writeResult(buf []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	%s_, err := c.w.Write(buf)
	return err
}
`
	clean := strings.Replace(body,
		"%s", "//drtmr:allow lockorder wmu serializes whole frames onto the socket by design\n\t", 1)
	mutated := strings.Replace(body, "%s", "", 1)
	expectTeeth(t, lint.LockOrder, clean, mutated, "may perform wire I/O")
}

// TestLockOrderYieldTeeth mirrors the coroutine scheduler's discipline: a
// worker must release its locks before parking. Holding one across the
// park channel send — the shape txn.(*Worker).yield would take if a lock
// leaked into it — must fire the yield rule.
func TestLockOrderYieldTeeth(t *testing.T) {
	const clean = `package seed

import "sync"

type worker struct {
	mu   sync.Mutex
	park chan struct{}
}

func (w *worker) yield() {
	w.mu.Lock()
	w.mu.Unlock()
	w.park <- struct{}{}
}
`
	const mutated = `package seed

import "sync"

type worker struct {
	mu   sync.Mutex
	park chan struct{}
}

func (w *worker) yield() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.park <- struct{}{}
}
`
	expectTeeth(t, lint.LockOrder, clean, mutated, "held across channel send")
}

// TestEnumSwitchTeeth mirrors the txn write-set kind dispatch
// (applyInsertsDeletes / postWriteBack): every wsKind must be handled or
// the skip documented. Dropping the documented arm must fire enumswitch.
func TestEnumSwitchTeeth(t *testing.T) {
	const clean = `package seed

type wsKind uint8

const (
	wsUpdate wsKind = iota
	wsInsert
	wsDelete
	wsDelta
)

func apply(k wsKind) int {
	switch k {
	case wsInsert:
		return 1
	case wsDelete:
		return 2
	case wsUpdate, wsDelta:
		// installed by write-back, not a structural mutation
	}
	return 0
}
`
	const mutated = `package seed

type wsKind uint8

const (
	wsUpdate wsKind = iota
	wsInsert
	wsDelete
	wsDelta
)

func apply(k wsKind) int {
	switch k {
	case wsInsert:
		return 1
	case wsDelete:
		return 2
	}
	return 0
}
`
	expectTeeth(t, lint.EnumSwitch, clean, mutated, "missing wsDelta, wsUpdate")
}
