// Package lint is drtmr's own vet suite: five analyzers that turn the
// protocol's structural runtime invariants — the properties the paper's
// correctness argument (and the seeded torture oracle) lean on, broken in
// ways no other tier-1 test notices — into test failures. TestAnalyzers runs
// them over the whole module as part of `go test ./...`; `make lint` runs
// that test alone.
//
// The five invariants (DESIGN.md "Static invariants" has the full story, and
// the audit that keeps an analyzer only while tier-1 would miss its
// violations):
//
//	htmregion   — no blocking/yielding operation inside an HTM region
//	virtualtime — no wall clock or global randomness in protocol packages
//	abortattr   — every txn.Error names its Stage and Site, and its label
//	              is never computed where the abort is raised
//	lockorder   — no lock-order cycles; no lock held across a coroutine
//	              yield, or across wire I/O in internal/serve
//	enumswitch  — switches over protocol enums are exhaustive or carry an
//	              explicit default-with-reason
//
// lockorder alone is interprocedural: it reads the per-function facts of
// internal/lint/analysis (summary.go), propagated bottom-up within a package
// and, across packages, from the facts computed for the packages below it
// in the same run.
//
// Findings are suppressed with `//drtmr:allow <analyzer> <reason>` on the
// offending line or the line above; the reason is mandatory.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"drtmr/internal/lint/analysis"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	HTMRegion,
	VirtualTime,
	AbortAttr,
	LockOrder,
	EnumSwitch,
}

// protocolPackages are the import paths whose code must stay bit-deterministic
// under seeded replay (virtualtime) — the simulator, the protocol, the
// comparison systems, and the harness that fingerprints them.
var protocolPackages = []string{
	"drtmr/internal/txn",
	"drtmr/internal/htm",
	"drtmr/internal/rdma",
	"drtmr/internal/cluster",
	"drtmr/internal/sim",
	"drtmr/internal/check",
	"drtmr/internal/bench",
	"drtmr/internal/serve",
	"drtmr/internal/baseline",
}

// inProtocolPackages matches pkg path (or any of its subpackages).
func inProtocolPackages(path string) bool {
	for _, p := range protocolPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// isProtocolPackage restricts an analyzer to the transaction layer — the
// commit pipeline, the Error type, and any CommitProtocol implementation
// package nested under it (a protocol split into internal/txn/<proto> must
// keep the same invariants as code living in internal/txn itself).
func isProtocolPackage(path string) bool {
	return path == "drtmr/internal/txn" || strings.HasPrefix(path, "drtmr/internal/txn/")
}

// isAbortSurfacePackage widens abortattr beyond the transaction layer to the
// serve tree: the network front door mints txn.Error values of its own
// (ServerBusy at admission, Deadline at queue expiry) and reconstructs them
// client-side from the wire, and a literal there that forgets Stage or Site
// misattributes those aborts exactly like one on a commit path would.
func isAbortSurfacePackage(path string) bool {
	return isProtocolPackage(path) ||
		path == "drtmr/internal/serve" || strings.HasPrefix(path, "drtmr/internal/serve/")
}

// isSummaryPackage scopes lockorder and enumswitch to the packages whose lock
// discipline and enums the protocol's correctness and measurements depend on:
// the protocol/simulator tree plus the observability layer.
func isSummaryPackage(path string) bool {
	return inProtocolPackages(path) ||
		path == "drtmr/internal/obs" || strings.HasPrefix(path, "drtmr/internal/obs/")
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (function, method, or qualified package function); nil for builtins,
// conversions, and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// calleeName returns the bare name a call invokes, resolving through the
// type info when possible and falling back to the syntax (so fixtures and
// partially checked code still match).
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if f := calleeFunc(info, call); f != nil {
		return f.Name()
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// pkgLevelCallee returns the package path and name of a call to a
// package-level function ("" path when the callee is a method or unknown).
func pkgLevelCallee(info *types.Info, call *ast.CallExpr) (path, name string) {
	f := calleeFunc(info, call)
	if f == nil {
		return "", ""
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return "", ""
	}
	if f.Pkg() == nil {
		return "", f.Name()
	}
	return f.Pkg().Path(), f.Name()
}

// namedTypeName unwraps pointers and aliases and returns the named type's
// bare name ("" for unnamed types).
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// recvTypeName returns the receiver type name of the method a call invokes
// ("" for non-methods).
func recvTypeName(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	return namedTypeName(sig.Recv().Type())
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// isTestFile reports whether pos's file is a _test.go file.
func isTestFile(pass *analysis.Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
}
