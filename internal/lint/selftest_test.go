package lint_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drtmr/internal/lint"
	"drtmr/internal/lint/analysis"
	"drtmr/internal/lint/analysistest"
)

// runAnalyzer runs a single analyzer, package filters bypassed, over one
// source file.
func runAnalyzer(t *testing.T, a *analysis.Analyzer, src string) []analysis.Diagnostic {
	t.Helper()
	file := filepath.Join(t.TempDir(), "seed.go")
	if err := os.WriteFile(file, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	return analysistest.Check(t, token.NewFileSet(), "seed", []string{file}, a).Diags
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
// park's coroutine switch — a call through the yield iter.Pull handed the
// context, the shape txn.(*Worker).park would take if a lock leaked into it
// — must fire the yield rule.
func TestLockOrderYieldTeeth(t *testing.T) {
	const body = `package seed

import "sync"

type worker struct {
	mu    sync.Mutex
	yield func(struct{}) bool
}

func (w *worker) park() {
	w.mu.Lock()
	%s
	w.yield(struct{}{})
}
`
	clean := strings.Replace(body, "%s", "w.mu.Unlock()", 1)
	mutated := strings.Replace(body, "%s", "defer w.mu.Unlock()", 1)
	expectTeeth(t, lint.LockOrder, clean, mutated, "held across coroutine switch")
}

// TestAbortAttrTeeth mirrors the admission controller's shed: a constant
// label with the queue depth in Seen. Formatting the depth into the label —
// the shape every abort site had before aborts became plain data — must
// fire the label rule.
func TestAbortAttrTeeth(t *testing.T) {
	const body = `package seed

import "fmt"

var _ = fmt.Sprint

type Error struct {
	Reason int
	Stage  uint8
	Site   uint16
	Detail string
	Seen   uint64
}

func shed(d, max int64) *Error {
	return &Error{Reason: 7, Stage: 10, Site: 1, %s}
}
`
	clean := strings.Replace(body, "%s", `Detail: "queue depth at watermark", Seen: uint64(d)`, 1)
	mutated := strings.Replace(body, "%s", `Detail: fmt.Sprintf("queue depth %d at watermark %d", d, max)`, 1)
	expectTeeth(t, lint.AbortAttr, clean, mutated, "Detail is computed")
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
