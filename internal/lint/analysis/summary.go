// Summary-based interprocedural facts, the ones lockorder reads. Summarize
// walks every function in a package once and produces a FuncSummary per
// function: whether it may park the coroutine or perform wire I/O (each with
// the first witness behind it), the lock classes it transitively acquires,
// and the lock-order edges its body creates (lock B acquired while A is
// held). Summaries are propagated bottom-up: calls into already-summarized
// functions (same package via an in-package fixpoint, dependency packages via
// the facts computed for them earlier in the same run) fold the callee's
// facts into the caller's, so an analyzer looking at one call site sees the
// whole call chain behind it. Standard-library behaviour is a table
// (synthesize): runtime.Gosched yields, net/io/os and their kin do wire I/O.
//
// Precision notes (deliberate approximations, all safe-with-escape-hatch
// because findings can carry a reasoned //drtmr:allow):
//   - held-lock tracking is source-order linear, not path-sensitive: a lock
//     released on every branch is considered released after the first
//     syntactic Unlock;
//   - function literals are summarized as separate pseudo-functions
//     (key "parent$litN") so lock misuse inside them is still caught, but
//     their facts do not propagate to the enclosing function;
//   - calls through function values, and interface methods of this
//     repository's types, have no summary and contribute nothing;
//   - same-class edges (A while A) are dropped: they almost always mean two
//     instances of one sharded structure, not re-entrant acquisition.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// FuncSummary is one function's interprocedural fact record.
type FuncSummary struct {
	Name string

	// YieldVia names the first witness behind a function that may park the
	// running coroutine — a channel op, select, a yield func value, Gosched or a
	// callee that does — e.g. "txn.(*Worker).park → coroutine switch"; WireVia
	// the same for network or file I/O. Each is "" when the function cannot.
	YieldVia string
	WireVia  string

	// Acquires lists every lock class this function may acquire, directly
	// or through any callee.
	Acquires []string
}

// LockEdge is one acquisition-order edge: To was acquired at Pos (inside Fn)
// while From was held.
type LockEdge struct {
	From, To, Fn string
	Pos          token.Pos
}

func (e LockEdge) key() string { return e.From + "\x00" + e.To + "\x00" + e.Fn }

// CallSite is one out-edge of a function body — a statically resolved call
// or a direct scheduling-point operation — with the lock classes held there.
type CallSite struct {
	Pos    token.Pos
	Held   []string
	Callee string // qualified key of the callee, or ""
	Op     string // direct op: "channel send", "channel receive", "select", "coroutine switch"
}

// FuncFacts is the per-function working set an analyzer consumes: the
// summary plus the call sites it was built from.
type FuncFacts struct {
	Summary *FuncSummary
	Calls   []CallSite
}

// PkgFacts is everything Summarize derives for one package.
type PkgFacts struct {
	Local      map[string]*FuncFacts   // this package's functions (+ closures)
	Imported   map[string]*FuncSummary // dependency + synthesized summaries
	LocalEdges []LockEdge
	AllEdges   []LockEdge // LocalEdges + every dependency's LocalEdges

	localSeen map[string]bool
}

// IsLocalModule reports whether an import path belongs to this repository
// (facts are computed) as opposed to the standard library (facts are
// synthesized from a table).
func IsLocalModule(path string) bool {
	return path == "drtmr" || strings.HasPrefix(path, "drtmr/")
}

// FuncKey returns the canonical summary key of a function: "pkg.Name" for
// package-level functions, "pkg.(*Recv).Name" / "pkg.(Recv).Name" for
// methods.
func FuncKey(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t, ptr = p.Elem(), "*"
		}
		if n, ok := t.(*types.Named); ok {
			prefix := ""
			if n.Obj().Pkg() != nil {
				prefix = n.Obj().Pkg().Path() + "."
			}
			return prefix + "(" + ptr + n.Obj().Name() + ")." + f.Name()
		}
		return f.FullName()
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}

// ShortName compresses a summary key for diagnostics:
// "drtmr/internal/obs.(*Recorder).Record" → "obs.(*Recorder).Record".
func ShortName(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// Lookup resolves a callee to its summary: local package first, then
// dependency facts, then the standard-library model. Returns nil for
// functions with no summary (interface methods of local types, missing
// facts, the "" callee of a direct operation).
func (pf *PkgFacts) Lookup(key string) *FuncSummary {
	if ff := pf.Local[key]; ff != nil {
		return ff.Summary
	}
	return pf.Imported[key]
}

// Summarize computes per-function facts for one type-checked package on top
// of deps, the facts of every module package below it (none for a fixture),
// propagating their summaries through an in-package fixpoint.
func Summarize(files []*ast.File, pkg *types.Package, info *types.Info, deps []*PkgFacts) *PkgFacts {
	pf := &PkgFacts{
		Local:     make(map[string]*FuncFacts),
		Imported:  make(map[string]*FuncSummary),
		localSeen: make(map[string]bool),
	}
	for _, d := range deps {
		for k, ff := range d.Local {
			pf.Imported[k] = ff.Summary
		}
	}
	for _, file := range files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				pf.walk(info, declKey(pkg, info, fd), fd.Body)
			}
		}
	}
	pf.propagate()

	// The full edge set: local first (stable report positions), then every
	// dependency's own.
	pf.AllEdges = slices.Clone(pf.LocalEdges)
	for _, d := range deps {
		pf.AllEdges = append(pf.AllEdges, d.LocalEdges...)
	}
	return pf
}

// propagate runs the in-package fixpoint over the yield and wire-I/O facts,
// acquire sets, and callee-derived lock edges.
func (pf *PkgFacts) propagate() {
	for changed := true; changed; {
		changed = false
		for _, ff := range pf.Local {
			sum := ff.Summary
			for _, cs := range ff.Calls {
				cal := pf.Lookup(cs.Callee)
				if cal == nil {
					continue
				}
				if sum.YieldVia == "" && cal.YieldVia != "" {
					sum.YieldVia, changed = chain(ShortName(cs.Callee), cal.YieldVia), true
				}
				if sum.WireVia == "" && cal.WireVia != "" {
					sum.WireVia, changed = chain(ShortName(cs.Callee), cal.WireVia), true
				}
				// Transitive acquisitions, and the edges they induce at
				// this (lock-held) call site.
				for _, a := range cal.Acquires {
					if !slices.Contains(sum.Acquires, a) {
						sum.Acquires = append(sum.Acquires, a)
						changed = true
					}
					for _, h := range cs.Held {
						if h != a && pf.addLocalEdge(LockEdge{From: h, To: a, Fn: sum.Name, Pos: cs.Pos}) {
							changed = true
						}
					}
				}
			}
		}
	}
	for _, ff := range pf.Local {
		sort.Strings(ff.Summary.Acquires)
	}
}

// addLocalEdge records e unless this package already has an edge with its
// From, To and Fn, and reports whether it did.
func (pf *PkgFacts) addLocalEdge(e LockEdge) bool {
	if pf.localSeen[e.key()] {
		return false
	}
	pf.localSeen[e.key()] = true
	pf.LocalEdges = append(pf.LocalEdges, e)
	return true
}

func chain(head, tail string) string {
	if tail == "" || tail == head {
		return head
	}
	// Bound the witness chain so diagnostics stay readable.
	if strings.Count(tail, "→") >= 2 {
		if i := strings.LastIndex(tail, " → "); i > 0 {
			tail = tail[:i] + " → …"
		}
	}
	return head + " → " + tail
}

func declKey(pkg *types.Package, info *types.Info, fd *ast.FuncDecl) string {
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok && obj != nil {
		return FuncKey(obj)
	}
	path := ""
	if pkg != nil {
		path = pkg.Path() + "."
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return path + "(?)." + fd.Name.Name
	}
	return path + fd.Name.Name
}
