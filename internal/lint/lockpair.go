package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"drtmr/internal/lint/analysis"
)

// LockPair guards the commit/fallback lock discipline: a doorbell batch of
// lock CASes executes in full before any result is visible, so the scan over
// its results must (a) record every won lock in the back-out set and (b) run
// to completion before acting on any failure. An early `break` or `return`
// from the scan leaks locks won later in the batch — the exact bug class of
// the C.1 retry-batch fix (commit c08a886): the back-out path then releases
// only the subset collected so far and the rest stay held forever. The
// commit pipelines share one such scan — Txn.lockBatch in
// internal/txn/stages.go — so that is the single real site this analyzer
// audits; the fixture keeps the shapes the three former copies had.
//
// Flow-sensitively, for every loop that inspects CAS results (reads the
// .Swapped field of a *rdma.Pending):
//
//  1. no statement in the loop may exit it early (break out of the loop,
//     a labeled continue targeting an enclosing loop, or return) — record
//     failures and act after the scan completes;
//  2. the loop must record acquisitions somewhere: an append to a back-out
//     slice or a call to a release/unlock/record helper.
//
// Breaks that target a switch/select nested inside the loop are fine, as are
// unlabeled continues and continues naming the scan loop itself (both start
// the next result) — but `continue groups` out to a group driver (the shape
// the fallback's per-node-group loop had before it called lockBatch) abandons
// the rest of the scan exactly like a break does.
var LockPair = &analysis.Analyzer{
	Name:          "lockpair",
	Doc:           "lock-word CAS results must be fully scanned and every won lock recorded in the back-out set",
	PackageFilter: isProtocolPackage,
	Run:           runLockPair,
}

func runLockPair(pass *analysis.Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		// Map loop statements to their labels so a scan loop knows its own
		// label (continue to it is a normal next-iteration).
		loopLabels := make(map[ast.Stmt]string)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if ls, ok := n.(*ast.LabeledStmt); ok && ls.Stmt != nil {
				loopLabels[ls.Stmt] = ls.Label.Name
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if !readsSwapped(pass.TypesInfo, body) {
				return true
			}
			// Innermost-loop rule: if a nested loop inside this one is the
			// one reading Swapped, the nested visit handles it.
			if hasNestedSwappedLoop(pass.TypesInfo, body) {
				return true
			}
			checkScanLoop(pass, n, body, loopLabels[n.(ast.Stmt)])
			return true
		})
	}
	return nil
}

// readsSwapped reports whether the subtree reads a field named Swapped
// (the CAS-result success bit on rdma.Pending; matched by selection so
// fixtures with their own Pending-shaped struct work too).
func readsSwapped(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Swapped" {
			return true
		}
		if s, ok := info.Selections[sel]; ok {
			if s.Kind() == types.FieldVal {
				found = true
			}
			return true
		}
		// Unresolved selection (partial type info): match by name.
		found = true
		return true
	})
	return found
}

// hasNestedSwappedLoop reports whether a loop nested inside body itself
// reads Swapped (then the outer loop is a group driver, not the scan).
func hasNestedSwappedLoop(info *types.Info, body *ast.BlockStmt) bool {
	nested := false
	ast.Inspect(body, func(n ast.Node) bool {
		if nested {
			return false
		}
		switch inner := n.(type) {
		case *ast.ForStmt:
			if readsSwapped(info, inner.Body) {
				nested = true
			}
			return false
		case *ast.RangeStmt:
			if readsSwapped(info, inner.Body) {
				nested = true
			}
			return false
		}
		return true
	})
	return nested
}

// checkScanLoop applies the two lock-discipline rules to one result scan.
// scanLabel is the scan loop's own label ("" if unlabeled).
func checkScanLoop(pass *analysis.Pass, loop ast.Node, body *ast.BlockStmt, scanLabel string) {
	// Labels that a continue may safely target: the scan loop itself plus
	// any labeled statement nested inside the scan body (continuing either
	// stays within the scan). Anything else is an enclosing loop — leaving
	// for it abandons the rest of the results.
	safeLabels := map[string]bool{}
	if scanLabel != "" {
		safeLabels[scanLabel] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			safeLabels[ls.Label.Name] = true
		}
		return true
	})

	// Rule 1: no early exit. Track switch/select nesting so their breaks
	// don't count; skip nested function literals entirely.
	var walk func(n ast.Node, breakable int)
	walk = func(n ast.Node, breakable int) {
		switch st := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			// A nested loop: its unlabeled breaks exit IT, not the scan.
			// (Nested scans were excluded by hasNestedSwappedLoop.)
			for _, c := range childStmts(st.(ast.Stmt)) {
				walk(c, breakable+1)
			}
			return
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, c := range childStmts(st.(ast.Stmt)) {
				walk(c, breakable+1)
			}
			return
		case *ast.BranchStmt:
			exits := false
			switch st.Tok.String() {
			case "break":
				// Unlabeled break inside a nested breakable construct stays
				// local; a labeled break always targets an enclosing loop.
				exits = breakable == 0 || st.Label != nil
			case "continue":
				// Unlabeled continue (and continue to the scan's own label,
				// or to a loop nested in the scan) starts the next result;
				// a continue naming an ENCLOSING loop's label leaves the
				// scan mid-batch — the labeled-continue variant of the
				// early-break leak.
				exits = st.Label != nil && !safeLabels[st.Label.Name]
			case "goto":
				exits = true
			}
			if exits {
				pass.Reportf(st.Pos(),
					"early exit from a lock-CAS result scan: locks won later in the batch leak past the back-out set — record the failure and break after the scan completes")
			}
			return
		case *ast.ReturnStmt:
			pass.Reportf(st.Pos(),
				"return inside a lock-CAS result scan: locks won later in the batch leak past the back-out set — finish the scan, then return")
			return
		}
		// Generic recursion over child statements/expressions.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			switch c.(type) {
			case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt,
				*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
				*ast.BranchStmt, *ast.ReturnStmt:
				walk(c, breakable)
				return false
			}
			return true
		})
	}
	for _, s := range body.List {
		walk(s, 0)
	}

	// Rule 2: the scan must record acquisitions somewhere.
	if !recordsAcquisition(pass.TypesInfo, body) {
		pass.Reportf(loop.Pos(),
			"lock-CAS result scan never records won locks: append the acquired target to the back-out set (or release it) on the Swapped branch")
	}
}

// recordsAcquisition reports whether the loop body appends to a slice (the
// back-out set idiom) or calls a helper whose name signals release/record.
func recordsAcquisition(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if obj := info.Uses[id]; obj == nil || isBuiltin(obj) {
				found = true
				return true
			}
		}
		name := strings.ToLower(calleeName(info, call))
		for _, verb := range []string{"unlock", "release", "record", "backout"} {
			if strings.Contains(name, verb) {
				found = true
				return true
			}
		}
		return true
	})
	return found
}

func isBuiltin(obj types.Object) bool {
	_, ok := obj.(*types.Builtin)
	return ok
}
