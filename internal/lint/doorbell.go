package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"drtmr/internal/lint/analysis"
)

// Doorbell guards the PR-1 batching win against regression: in the commit
// pipeline, one-sided verbs are posted to an rdma.Batch and ring a single
// doorbell per phase (one base latency for the whole batch) instead of
// paying a full round-trip per verb. A raw single-verb QP call written in a
// function that already has a Batch in scope is almost always a missed
// PostX — it silently re-introduces the sequential per-verb latency the
// batching work removed, and no correctness test notices.
//
// Single-verb QP calls in functions with no Batch in scope (last-resort
// header reads, passive lock release) are legitimate and not flagged.
//
// The second rule guards the two-doorbell commit the same way: a queue pair
// executes its work requests in post order, so two doorbells rung one after
// the other are only needed when the second batch's verbs depend on what the
// first returned. Two execBatch calls in one function with no read of a
// Pending's result (Data, Val, Prev, Swapped — Err is a failure, not data)
// between them is a round-trip, a coroutine yield and a stretch of lock-hold
// time that fusing the batches would delete.
var Doorbell = &analysis.Analyzer{
	Name:          "doorbell",
	Doc:           "flag raw single-verb QP.Read/Write/CAS calls where an rdma.Batch is in scope, and back-to-back execBatch doorbells with no data dependency between them (doorbell batching regression guards)",
	PackageFilter: isProtocolPackage,
	Run:           runDoorbell,
}

// singleVerbMethods are the synchronous per-verb QP entry points with a
// batched equivalent (Batch.PostRead/PostRead64/PostWrite/PostWrite64/
// PostCAS).
var singleVerbMethods = map[string]string{
	"Read":    "PostRead",
	"Read64":  "PostRead64",
	"Write":   "PostWrite",
	"Write64": "PostWrite64",
	"CAS":     "PostCAS",
}

func runDoorbell(pass *analysis.Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		checkBackToBackDoorbells(pass, fd)
		batchPos := firstBatchInScope(pass.TypesInfo, fd)
		if !batchPos.IsValid() {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if call.Pos() < batchPos {
				return true
			}
			name := calleeName(pass.TypesInfo, call)
			post, isVerb := singleVerbMethods[name]
			if !isVerb || recvTypeName(pass.TypesInfo, call) != "QP" {
				return true
			}
			pass.Reportf(call.Pos(),
				"single-verb QP.%s while an rdma.Batch is in scope pays a full per-verb round-trip: post it with Batch.%s and share the doorbell", name, post)
			return true
		})
	}
	return nil
}

// pendingResults are the fields of rdma.Pending that carry what a verb
// returned.
var pendingResults = map[string]bool{"Data": true, "Val": true, "Prev": true, "Swapped": true}

// checkBackToBackDoorbells reports every execBatch call that follows another
// in fd (source order) with no Pending result read in between.
func checkBackToBackDoorbells(pass *analysis.Pass, fd *ast.FuncDecl) {
	var rings, reads []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if calleeName(pass.TypesInfo, n) == "execBatch" {
				rings = append(rings, n.Pos())
			}
		case *ast.SelectorExpr:
			if pendingResults[n.Sel.Name] && exprTypeName(pass.TypesInfo, n.X) == "Pending" {
				reads = append(reads, n.Pos())
			}
		}
		return true
	})
	for i := 1; i < len(rings); i++ {
		dependent := false
		for _, r := range reads {
			dependent = dependent || (rings[i-1] < r && r < rings[i])
		}
		if !dependent {
			pass.Reportf(rings[i], "back-to-back doorbells with no data dependency: fuse or justify (one QP executes in post order, so the second batch's verbs can ride the first doorbell)")
		}
	}
}

// firstBatchInScope returns the position of the first declaration of a
// (*)Batch-typed variable in the function (parameters included), or NoPos.
func firstBatchInScope(info *types.Info, fd *ast.FuncDecl) token.Pos {
	pos := token.NoPos
	consider := func(id *ast.Ident) {
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && namedTypeName(v.Type()) == "Batch" {
			if !pos.IsValid() || id.Pos() < pos {
				pos = id.Pos()
			}
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, id := range f.Names {
				consider(id)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			consider(id)
		}
		return true
	})
	return pos
}
