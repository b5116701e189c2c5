package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"drtmr/internal/lint/analysis"
)

// HTMRegion forbids operations that abort (or would be unsound inside) a
// hardware transaction between htmBegin/htmEnd brackets: anything that can
// block, yield, or trap — channel operations, mutex operations, coroutine
// yield points (yield/await/Backoff/Poll/poll), I/O and syscalls — plus heap growth
// that escapes into shared state (append / map writes to non-locals), which
// inflates the HTM working set the protocol works hard to keep small (§3.3).
// The runtime already panics when a coroutine yields inside a region
// (Worker.yield); this analyzer makes that class of bug a compile-time error
// on every path, not just the paths a torture seed happens to exercise.
//
// The check is intraprocedural: a region that delegates its body to a helper
// (the localCommitBody idiom) marks the helper with a //drtmr:htmbody
// directive in its doc comment, and the helper's whole body is then checked
// as region code.
var HTMRegion = &analysis.Analyzer{
	Name:          "htmregion",
	Doc:           "forbid blocking, yielding, I/O, and shared-state heap growth inside htmBegin/htmEnd HTM regions",
	PackageFilter: isProtocolPackage,
	Run:           runHTMRegion,
}

// yieldNames are callee names that block or hand control to the scheduler.
var yieldNames = map[string]bool{
	"yield":   true,
	"await":   true,
	"Backoff": true,
	"Poll":    true,
	"poll":    true,
	"gate":    true,
	"Yield":   true,
	"Gosched": true,
	"Sleep":   true,
	"Wait":    true,
}

// mutexMethodNames are synchronization methods that must never run inside a
// region (a blocked lock acquisition can never make progress under HTM, and
// an unlock tears another goroutine's critical section into the region).
var mutexMethodNames = map[string]bool{
	"Lock":    true,
	"Unlock":  true,
	"RLock":   true,
	"RUnlock": true,
}

// ioPackages cause syscalls (write, read, mmap) that unconditionally abort
// an RTM transaction.
var ioPackages = map[string]bool{
	"fmt":     true,
	"os":      true,
	"io":      true,
	"log":     true,
	"net":     true,
	"bufio":   true,
	"syscall": true,
}

func runHTMRegion(pass *analysis.Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		c := &regionChecker{pass: pass}
		c.scan(fd.Body.List, hasHTMBodyDirective(fd))
	}
	// Func literals open regions too (closures handed to a scheduler, test
	// bodies): scan each literal's body as its own function scope.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
				c := &regionChecker{pass: pass}
				c.scan(fl.Body.List, false)
			}
			return true
		})
	}
	return nil
}

// hasHTMBodyDirective reports whether the function's doc comment carries
// //drtmr:htmbody — "this helper runs entirely inside a caller's region".
func hasHTMBodyDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//drtmr:htmbody") {
			return true
		}
	}
	return false
}

type regionChecker struct {
	pass *analysis.Pass
}

// scan walks a statement list tracking whether an HTM region is open, and
// checks every in-region statement. It returns the region state at the end
// of the list (branch-local htmEnd closes only within its branch; a region
// opened in a branch conservatively stays open for the tail).
func (c *regionChecker) scan(stmts []ast.Stmt, inRegion bool) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				switch calleeName(c.pass.TypesInfo, call) {
				case "htmBegin":
					inRegion = true
					continue
				case "htmEnd":
					inRegion = false
					continue
				}
			}
		case *ast.DeferStmt:
			if calleeName(c.pass.TypesInfo, st.Call) == "htmEnd" {
				continue // closes at return; region stays open lexically
			}
		case *ast.BlockStmt:
			inRegion = c.scan(st.List, inRegion)
			continue
		case *ast.IfStmt:
			if inRegion {
				c.checkExpr(st.Cond)
				if st.Init != nil {
					c.checkStmtShallow(st.Init)
				}
			}
			c.scan(st.Body.List, inRegion)
			if st.Else != nil {
				c.scan([]ast.Stmt{st.Else}, inRegion)
			}
			continue
		case *ast.ForStmt:
			if inRegion {
				if st.Cond != nil {
					c.checkExpr(st.Cond)
				}
				if st.Init != nil {
					c.checkStmtShallow(st.Init)
				}
				if st.Post != nil {
					c.checkStmtShallow(st.Post)
				}
			}
			inRegion = c.scan(st.Body.List, inRegion)
			continue
		case *ast.RangeStmt:
			if inRegion {
				c.checkExpr(st.X)
			}
			inRegion = c.scan(st.Body.List, inRegion)
			continue
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			var body *ast.BlockStmt
			if sw, ok := st.(*ast.SwitchStmt); ok {
				body = sw.Body
			} else {
				body = st.(*ast.TypeSwitchStmt).Body
			}
			for _, cl := range body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					if inRegion {
						for _, e := range cc.List {
							c.checkExpr(e)
						}
					}
					c.scan(cc.Body, inRegion)
				}
			}
			continue
		case *ast.LabeledStmt:
			inRegion = c.scan([]ast.Stmt{st.Stmt}, inRegion)
			continue
		}
		if inRegion {
			c.checkStmtShallow(s)
		}
	}
	return inRegion
}

// checkStmtShallow checks one non-compound statement's whole subtree.
func (c *regionChecker) checkStmtShallow(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.SendStmt:
		c.report(st.Pos(), "channel send inside an HTM region can block and aborts the hardware transaction")
		return
	case *ast.SelectStmt:
		c.report(st.Pos(), "select inside an HTM region blocks and aborts the hardware transaction")
		return
	case *ast.GoStmt:
		c.report(st.Pos(), "goroutine launch inside an HTM region (context switch aborts the hardware transaction)")
		return
	case *ast.AssignStmt:
		c.checkMapGrow(st)
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				c.report(e.Pos(), "channel receive inside an HTM region can block and aborts the hardware transaction")
			}
		case *ast.SendStmt:
			c.report(e.Pos(), "channel send inside an HTM region can block and aborts the hardware transaction")
		case *ast.SelectStmt:
			c.report(e.Pos(), "select inside an HTM region blocks and aborts the hardware transaction")
		case *ast.GoStmt:
			c.report(e.Pos(), "goroutine launch inside an HTM region (context switch aborts the hardware transaction)")
		case *ast.CallExpr:
			c.checkCall(e)
		}
		return true
	})
}

func (c *regionChecker) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	c.checkStmtShallow(&ast.ExprStmt{X: e})
}

func (c *regionChecker) checkCall(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	name := calleeName(info, call)

	// Builtin heap growth escaping into shared state.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "append":
			if len(call.Args) > 0 && c.escapesFunction(call.Args[0]) {
				c.report(call.Pos(), "append into shared state inside an HTM region grows the heap and the HTM working set")
			}
			return
		case "print", "println":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin || info.Uses[id] == nil {
				c.report(call.Pos(), "%s inside an HTM region performs a syscall and aborts the hardware transaction", id.Name)
				return
			}
		}
	}

	if name != "" && yieldNames[name] {
		c.report(call.Pos(), "call to %s inside an HTM region: a yield or blocking wait cannot preserve speculative hardware state", name)
		return
	}
	if name != "" && mutexMethodNames[name] && recvTypeName(info, call) != "" {
		c.report(call.Pos(), "mutex %s inside an HTM region can block or tear a critical section open", name)
		return
	}
	if path, _ := pkgLevelCallee(info, call); ioPackages[path] {
		c.report(call.Pos(), "call into package %s inside an HTM region performs I/O and aborts the hardware transaction", path)
		return
	}
}

// checkMapGrow flags writes through a map that lives beyond the function:
// a map insert can trigger a rehash — a large heap mutation inside the
// speculative region, visible to (and conflicting with) every other reader.
func (c *regionChecker) checkMapGrow(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		tv, ok := c.pass.TypesInfo.Types[ix.X]
		if !ok {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		if c.escapesFunction(ix.X) {
			c.report(lhs.Pos(), "map write into shared state inside an HTM region can rehash and abort the hardware transaction")
		}
	}
}

// escapesFunction reports whether the expression denotes storage that is not
// a plain function-local variable: a field, an element, or a package-level
// variable.
func (c *regionChecker) escapesFunction(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		if v.Parent() == nil {
			return true // field or similar
		}
		return c.pass.Pkg != nil && v.Parent() == c.pass.Pkg.Scope()
	}
	return false
}

func (c *regionChecker) report(pos token.Pos, format string, args ...any) {
	c.pass.Reportf(pos, format, args...)
}
