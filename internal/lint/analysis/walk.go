// Body walker behind Summarize: one linear source-order pass per function
// that tracks the held-lock set and records call sites (with the locks held
// at each) and direct scheduling-point operations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

type funcWalker struct {
	pf   *PkgFacts
	info *types.Info
	key  string
	ff   *FuncFacts
	held []string // ordered held-lock classes
	lits int      // closure counter for "$litN" keys
}

// walk summarizes one function body under key.
func (pf *PkgFacts) walk(info *types.Info, key string, body *ast.BlockStmt) {
	ff := &FuncFacts{Summary: &FuncSummary{Name: key}}
	pf.Local[key] = ff
	w := &funcWalker{pf: pf, info: info, key: key, ff: ff}
	ast.Inspect(body, w.visit)
}

func (w *funcWalker) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FuncLit:
		w.walkLit(x)
		return false

	case *ast.GoStmt:
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			w.walkLit(lit)
		}
		// Arguments are evaluated at the go statement, in the caller.
		for _, a := range x.Call.Args {
			ast.Inspect(a, w.visit)
		}
		return false

	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the function:
		// swallow the release. Other deferred calls count as calls made
		// here (an approximation that keeps them in the call graph).
		cls, op := w.lockOp(x.Call)
		return cls == "" || (op != "Unlock" && op != "RUnlock")

	case *ast.CallExpr:
		w.call(x)

	case *ast.SendStmt:
		w.op(x.Pos(), "channel send")

	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			w.op(x.Pos(), "channel receive")
		}

	case *ast.SelectStmt:
		w.op(x.Pos(), "select")

	case *ast.RangeStmt:
		if t := w.info.TypeOf(x.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.op(x.Pos(), "channel receive (range)")
			}
		}
	}
	return true
}

// walkLit summarizes a function literal as a separate pseudo-function
// ("parent$litN") with a fresh held set. Its facts do not flow back to the
// parent (invoking the closure later is a dynamic call); its lock edges and
// held-across-operation sites are still recorded.
func (w *funcWalker) walkLit(lit *ast.FuncLit) {
	w.lits++
	w.pf.walk(w.info, fmt.Sprintf("%s$lit%d", w.key, w.lits), lit.Body)
}

// op records a direct scheduling point (channel op, select, coroutine switch).
func (w *funcWalker) op(pos token.Pos, desc string) {
	w.ff.Calls = append(w.ff.Calls, CallSite{Pos: pos, Held: w.heldCopy(), Op: desc})
	if w.ff.Summary.YieldVia == "" {
		w.ff.Summary.YieldVia = desc
	}
}

func (w *funcWalker) heldCopy() []string {
	if len(w.held) == 0 {
		return nil
	}
	return append([]string(nil), w.held...)
}

// lockOp reports whether call is sync.Mutex/RWMutex (R)Lock/(R)Unlock on a
// classifiable receiver, returning the lock class and the method name.
func (w *funcWalker) lockOp(call *ast.CallExpr) (class, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	f, ok := w.info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", ""
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	n, ok := rt.(*types.Named)
	if !ok {
		return "", ""
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", ""
	}
	switch f.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	return w.lockClass(sel.X), f.Name()
}

// lockClass names the lock a mutex expression refers to. Struct fields get
// type-level classes ("pkg.Type.field") so every instance of a type shares
// one graph node; package-level vars get "pkg.var"; locals fall back to a
// function-scoped name.
func (w *funcWalker) lockClass(e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := w.info.Selections[x]; ok && s.Kind() == types.FieldVal {
			rt := s.Recv()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok {
				prefix := ""
				if n.Obj().Pkg() != nil {
					prefix = n.Obj().Pkg().Path() + "."
				}
				return prefix + n.Obj().Name() + "." + x.Sel.Name
			}
		}
		if v, ok := w.info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return w.key + "." + x.Sel.Name
	case *ast.Ident:
		if v, ok := w.info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return w.key + "." + v.Name()
		}
	case *ast.IndexExpr:
		// shards[i].mu reaches here via the SelectorExpr case; a bare
		// indexed mutex (rare) gets a per-function class.
		return w.key + ".<indexed lock>"
	}
	return w.key + ".<lock>"
}

func (w *funcWalker) acquire(pos token.Pos, class string) {
	for _, h := range w.held {
		if h == class {
			continue // same-class edge: sharded instances, not re-entrancy
		}
		w.pf.addLocalEdge(LockEdge{From: h, To: class, Fn: w.key, Pos: pos})
	}
	w.held = append(w.held, class)
	if !slices.Contains(w.ff.Summary.Acquires, class) {
		w.ff.Summary.Acquires = append(w.ff.Summary.Acquires, class)
	}
}

func (w *funcWalker) release(class string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == class {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// call classifies one CallExpr: a mutex operation, a call to a statically
// resolved function, or a coroutine switch. Conversions, builtins and other
// calls through function values resolve to no function and are not recorded.
func (w *funcWalker) call(call *ast.CallExpr) {
	if class, op := w.lockOp(call); class != "" {
		switch op {
		case "Unlock", "RUnlock":
			w.release(class)
		default:
			// A TryLock is result-dependent: it counts as an acquisition
			// for ordering purposes (the success path holds it).
			w.acquire(call.Pos(), class)
		}
		return
	}
	f := w.calleeFunc(ast.Unparen(call.Fun))
	if f == nil {
		// Calling a func value named yield (iter.Pull's) switches coroutines.
		id, _ := ast.Unparen(call.Fun).(*ast.Ident)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
		if v, ok := w.info.Uses[id].(*types.Var); ok && v.Name() == "yield" {
			w.op(call.Pos(), "coroutine switch")
		}
		return
	}
	key := FuncKey(f)
	// Memoize non-repo callees through the synthesized stdlib model so the
	// fixpoint only ever consults Local/Imported.
	if f.Pkg() != nil && !IsLocalModule(f.Pkg().Path()) && w.pf.Imported[key] == nil {
		w.pf.Imported[key] = synthesize(f)
	}
	w.ff.Calls = append(w.ff.Calls, CallSite{Pos: call.Pos(), Held: w.heldCopy(), Callee: key})
}

// calleeFunc resolves fun to a *types.Func for direct calls and concrete
// method calls. Interface method calls resolve to the interface method
// (which has a summary only when synthesized); calls through func-typed
// values return nil.
func (w *funcWalker) calleeFunc(fun ast.Expr) *types.Func {
	switch x := fun.(type) {
	case *ast.Ident:
		f, _ := w.info.Uses[x].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if s, ok := w.info.Selections[x]; ok {
			if s.Kind() == types.MethodVal {
				f, _ := s.Obj().(*types.Func)
				return f
			}
			return nil // field of func type → dynamic
		}
		f, _ := w.info.Uses[x.Sel].(*types.Func)
		return f
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return w.calleeFunc(x.X)
	}
	return nil
}
