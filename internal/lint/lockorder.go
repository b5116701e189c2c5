package lint

import (
	"sort"
	"strings"

	"drtmr/internal/lint/analysis"
)

// LockOrder is the interprocedural lock-discipline analyzer. It consumes the
// summary facts (analysis.Summarize) and reports three classes of finding:
//
//   - lock-order cycles: the static acquisition graph of sync.Mutex/RWMutex
//     classes contains a cycle, i.e. a potential deadlock;
//   - lock held across a coroutine yield: a mutex is held at a call site
//     whose callee may yield (channel op, select, runtime.Gosched,
//     transitively) — in the strict-handoff scheduler that parks the worker
//     while every other coroutine on it can block on the same mutex;
//   - lock held across wire I/O (internal/serve only): a mutex is held
//     while a callee may touch the network, stretching the critical section
//     across an unbounded syscall.
//
// Protocol lock words (CAS locks, contention gates) are not mutexes and are
// not in the graph: they are legitimately held across yields.
var LockOrder = &analysis.Analyzer{
	Name:          "lockorder",
	Doc:           "detect lock-order cycles and locks held across coroutine yields or wire I/O",
	Run:           runLockOrder,
	PackageFilter: isSummaryPackage,
}

func runLockOrder(pass *analysis.Pass) error {
	pf := pass.Facts
	wirePkg := pass.Fixture || (pass.Pkg != nil && strings.HasPrefix(pass.Pkg.Path(), "drtmr/internal/serve"))

	// Stable iteration order for deterministic output.
	keys := make([]string, 0, len(pf.Local))
	for k := range pf.Local {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, k := range keys {
		for _, cs := range pf.Local[k].Calls {
			if len(cs.Held) == 0 {
				continue
			}
			heldStr := strings.Join(shortAll(cs.Held), ", ")
			if cs.Op != "" {
				pass.Reportf(cs.Pos, "%s held across %s", heldStr, cs.Op)
				continue
			}
			cal := pf.Lookup(cs.Callee)
			if cal == nil {
				continue
			}
			switch {
			case cal.YieldVia != "":
				pass.Reportf(cs.Pos, "%s held across call to %s, which may yield%s",
					heldStr, analysis.ShortName(cs.Callee), viaClause(cs.Callee, cal.YieldVia))
			case wirePkg && cal.WireVia != "":
				pass.Reportf(cs.Pos, "%s held across call to %s, which may perform wire I/O%s",
					heldStr, analysis.ShortName(cs.Callee), viaClause(cs.Callee, cal.WireVia))
			}
		}
	}

	reportCycles(pass, pf)
	return nil
}

// viaClause renders a witness chain, dropping it when it only repeats the
// callee (a leaf finding) and trimming a leading callee segment.
func viaClause(calleeKey, via string) string {
	short := analysis.ShortName(calleeKey)
	if via == "" || via == short {
		return ""
	}
	via = strings.TrimPrefix(via, short+" → ")
	return " (via " + via + ")"
}

func shortAll(classes []string) []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = analysis.ShortName(c)
	}
	return out
}

// reportCycles finds strongly connected components of the full acquisition
// graph (local + imported edges) and reports each LOCAL edge that lies on a
// cycle, with one reconstructed cycle path as the witness. Each package
// reports only its own contribution, so a cross-package cycle produces one
// finding per participating package rather than duplicates.
func reportCycles(pass *analysis.Pass, pf *analysis.PkgFacts) {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for _, e := range pf.AllEdges {
		adj[e.From] = append(adj[e.From], e.To)
		nodes[e.From], nodes[e.To] = true, true
	}
	comp := sccComponents(nodes, adj)

	for _, e := range pf.LocalEdges {
		cf, okF := comp[e.From]
		ct, okT := comp[e.To]
		if !okF || !okT || cf != ct {
			continue
		}
		// Same SCC: the edge closes a cycle. Witness: shortest path To → From.
		path := shortestPath(adj, comp, cf, e.To, e.From)
		cycle := append([]string{e.From}, path...)
		pass.Reportf(e.Pos, "lock order cycle: acquiring %s while %s held closes cycle [%s]",
			analysis.ShortName(e.To), analysis.ShortName(e.From), strings.Join(shortAll(cycle), " → "))
	}
}

// sccComponents assigns each node a strongly-connected-component id; only
// components of size >= 2 get ids (self-edges are excluded at fact-building
// time, so singleton nodes cannot be cyclic).
func sccComponents(nodes map[string]bool, adj map[string][]string) map[string]int {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	comp := make(map[string]int)
	next, nComp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) >= 2 {
				for _, m := range members {
					comp[m] = nComp
				}
				nComp++
			}
		}
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, n := range order {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return comp
}

// shortestPath BFSes from src to dst inside one SCC and returns the node
// sequence src..dst (inclusive).
func shortestPath(adj map[string][]string, comp map[string]int, c int, src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if cw, ok := comp[w]; !ok || cw != c {
				continue
			}
			if _, seen := prev[w]; seen {
				continue
			}
			prev[w] = v
			if w == dst {
				var path []string
				for n := dst; ; n = prev[n] {
					path = append([]string{n}, path...)
					if n == src {
						return path
					}
				}
			}
			queue = append(queue, w)
		}
	}
	return []string{src, dst} // disconnected within SCC: cannot happen, keep a sane fallback
}
