package lint

import (
	"go/ast"
	"go/types"

	"drtmr/internal/lint/analysis"
)

// AbortAttr requires every txn.Error composite literal — each one an abort
// on some protocol path — to set Reason, Stage and Site explicitly. The
// observability layer's abort-attribution matrix (obs.AbortMatrix) is
// indexed reason × stage × site; a literal that leaves Stage or Site zero
// silently lands the abort in the exec/node-0 cell and the matrix loses
// information without any test failing. The blessed constructors
// (Txn.abort/abortAt) satisfy the rule by construction; this analyzer
// catches the ad-hoc literal someone adds on a new abort path.
//
// It keeps an abort plain data: the label (Detail) of a txn.Error literal,
// and the label argument of the constructors Txn.abort/abortAt/abortOn/
// abortConflict, is a constant or a value passed through, never computed
// there. A formatted label (fmt.Sprintf, strconv, err.Error(), a
// concatenation) costs its allocations on every abort,
// and the retry loop drops almost every abort unread; the variable fact
// goes in Seen, and Error formats only when read.
//
// It also enforces the CommitProtocol abort contract: a method on a type
// implementing the package-scope CommitProtocol interface must not mint
// untyped errors (fmt.Errorf, errors.New) — every error a protocol returns
// crosses the retry loop, which switches on *txn.Error to classify the
// abort; an untyped error silently becomes a non-retryable failure with no
// attribution cell at all. errors.Is/As and wrapping helpers remain fine.
var AbortAttr = &analysis.Analyzer{
	Name:          "abortattr",
	Doc:           "require txn.Error literals to set Reason, Stage and Site (abort-attribution completeness), with a label no call computes",
	PackageFilter: isAbortSurfacePackage,
	Run:           runAbortAttr,
}

// abortAttrRequired are the fields every Error literal must name.
var abortAttrRequired = []string{"Reason", "Stage", "Site"}

// abortAttrKeyed is the keyed-attribution trio: a literal that names any of
// them claims to attribute the abort to a record, and a partial claim is
// worse than none — HasKey without Table/Key feeds a zero key to the hot-key
// detector, Table/Key without HasKey is silently dropped.
var abortAttrKeyed = []string{"Table", "Key", "HasKey"}

// abortHelpers are the txn.Error constructors; the last argument of each is
// the abort's label.
var abortHelpers = map[string]bool{"abort": true, "abortAt": true, "abortOn": true, "abortConflict": true}

func runAbortAttr(pass *analysis.Pass) error {
	checkProtocolMethods(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkHelperLabel(pass, call)
				return true
			}
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if !isAbortErrorType(pass.TypesInfo, cl) {
				return true
			}
			have := make(map[string]bool, len(cl.Elts))
			positional := false
			for _, el := range cl.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					positional = true
					break
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					have[id.Name] = true
					if id.Name == "Detail" && computedLabel(pass.TypesInfo, kv.Value) {
						pass.Reportf(kv.Value.Pos(), "txn.Error Detail is computed: the label is a string constant, formatted only when Error is read — put the variable fact in Seen")
					}
				}
			}
			if positional {
				// Positional literals set every field; nothing to check.
				return true
			}
			for _, field := range abortAttrRequired {
				if !have[field] {
					pass.Reportf(cl.Pos(), "txn.Error literal without %s: the abort lands in the wrong abort-attribution cell — set %s explicitly (or use Txn.abort/abortAt)", field, field)
				}
			}
			anyKeyed := false
			for _, field := range abortAttrKeyed {
				anyKeyed = anyKeyed || have[field]
			}
			if anyKeyed {
				for _, field := range abortAttrKeyed {
					if !have[field] {
						pass.Reportf(cl.Pos(), "keyed txn.Error literal without %s: Table, Key and HasKey travel together — a partial key misattributes the abort in the hot-key detector (or use Txn.abortOn)", field)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkHelperLabel flags a call of an abort constructor (a method named in
// abortHelpers) whose label, its last argument, is computed.
func checkHelperLabel(pass *analysis.Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil || !abortHelpers[f.Name()] || len(call.Args) == 0 {
		return
	}
	if sig, _ := f.Type().(*types.Signature); sig == nil || sig.Recv() == nil {
		return
	}
	if label := call.Args[len(call.Args)-1]; computedLabel(pass.TypesInfo, label) {
		pass.Reportf(label.Pos(), "%s label is computed: the label is a string constant, formatted only when Error is read — put the variable fact in Seen", f.Name())
	}
}

// computedLabel reports whether e, an abort's label, is computed where it
// is used: neither a constant nor a value passed through (a parameter, a
// decoded field).
func computedLabel(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return false
	}
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return false
	}
	return true
}

// checkProtocolMethods flags fmt.Errorf / errors.New calls inside methods of
// CommitProtocol implementations. The interface is resolved by name from the
// package scope (shape-independent, so fixtures can declare their own).
func checkProtocolMethods(pass *analysis.Pass) {
	iface := commitProtocolInterface(pass.Pkg)
	if iface == nil {
		return
	}
	for _, fd := range funcDecls(pass.Files) {
		if fd.Recv == nil || len(fd.Recv.List) == 0 || isTestFile(pass, fd) {
			continue
		}
		tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
		if !ok || !implementsCommitProtocol(tv.Type, iface) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name := pkgLevelCallee(pass.TypesInfo, call)
			if (path == "fmt" && name == "Errorf") || (path == "errors" && name == "New") {
				pass.Reportf(call.Pos(), "%s.%s in CommitProtocol method %s: protocol errors must be *txn.Error so the retry loop can classify the abort — use Txn.abort/abortAt/abortOn", path, name, fd.Name.Name)
			}
			return true
		})
	}
}

// commitProtocolInterface finds a package-scope interface named
// CommitProtocol (nil when the package declares none).
func commitProtocolInterface(pkg *types.Package) *types.Interface {
	if pkg == nil {
		return nil
	}
	obj := pkg.Scope().Lookup("CommitProtocol")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// implementsCommitProtocol reports whether the receiver type (or its pointer)
// satisfies the interface.
func implementsCommitProtocol(t types.Type, iface *types.Interface) bool {
	if t == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return false
	}
	return types.Implements(types.NewPointer(t), iface)
}

// isAbortErrorType reports whether the composite literal builds a struct
// named Error that carries Stage and Site fields (the txn abort shape; the
// name+shape match keeps fixtures independent of the real package path).
func isAbortErrorType(info *types.Info, cl *ast.CompositeLit) bool {
	tv, ok := info.Types[cl]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Error" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var hasStage, hasSite bool
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "Stage":
			hasStage = true
		case "Site":
			hasSite = true
		}
	}
	return hasStage && hasSite
}
