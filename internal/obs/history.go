package obs

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// Transaction history capture for the strict-serializability checker
// (internal/check). A HistoryRecorder is the obs-side sibling of the event
// Recorder: one per worker, single-writer, appended to only by that worker's
// goroutine, and read only after the run. Unlike the event ring it keeps
// every transaction (no overwrite) because the checker needs the complete
// history, and it records versioned read/write sets rather than timing spans.
//
// Real-time ordering comes from a TickSource shared by every worker in the
// run: a global atomic counter whose increments are totally ordered by the
// host memory model. Per-worker virtual clocks are NOT comparable across
// workers (each worker advances its own sim.Clock independently), so they
// cannot provide the real-time edges strict serializability needs; the tick
// counter can, because a transaction's effects are visible in host memory
// before its response tick is drawn, and after its invocation tick. Virtual
// clock values are still carried (VStart/VEnd) for diagnostics.

// TickSource is the run-global logical clock for history timestamps.
type TickSource struct{ n atomic.Uint64 }

// NewTickSource creates a tick source starting at 1.
func NewTickSource() *TickSource { return &TickSource{} }

// Next draws the next globally ordered tick.
func (t *TickSource) Next() uint64 { return t.n.Add(1) }

// History operation kinds.
const (
	HistRead uint8 = iota
	HistUpdate
	HistInsert
	HistDelete
)

// HistOp is one versioned read- or write-set entry of a committed
// transaction. Seq is the sequence number observed (reads) or installed
// (updates/inserts); Inc is the record incarnation when known (HaveInc).
// Deletes carry no version: the delete itself ends the record's incarnation.
type HistOp struct {
	Kind    uint8
	Table   uint8
	Key     uint64
	Seq     uint64
	Inc     uint64
	HaveInc bool
}

// HistTxn is one committed (or possibly committed) transaction: its
// invocation/response interval in global ticks, the worker that ran it, and
// its versioned operation list. Maybe marks transactions whose commit
// outcome is uncertain — the machine was killed while the transaction was in
// flight, so its effects may or may not have survived; the checker includes
// such transactions only when another committed transaction observed them.
type HistTxn struct {
	ID       uint64
	Node     int
	Worker   int
	ReadOnly bool
	Maybe    bool

	Invoke   uint64 // global tick drawn before the first read of the final attempt
	Response uint64 // global tick drawn after commit completed
	VStart   int64  // worker virtual clock at the final attempt's start
	VEnd     int64  // worker virtual clock at commit

	Ops []HistOp
}

// HistoryRecorder accumulates one worker's committed transactions.
type HistoryRecorder struct {
	Node   int
	Worker int

	ticks *TickSource
	txns  []HistTxn
}

// NewHistoryRecorder creates a recorder for worker (node, worker) drawing
// timestamps from ts.
func NewHistoryRecorder(node, worker int, ts *TickSource) *HistoryRecorder {
	return &HistoryRecorder{Node: node, Worker: worker, ticks: ts}
}

// Tick draws an invocation timestamp (called by the worker at the start of
// each transaction attempt).
func (h *HistoryRecorder) Tick() uint64 { return h.ticks.Next() }

// Add appends a finished transaction, stamping its response tick. The
// response is drawn here — after every commit effect is visible in host
// memory — so the real-time order of ticks is a sound under-approximation of
// the real-time order of transactions.
func (h *HistoryRecorder) Add(t HistTxn) {
	t.Node, t.Worker = h.Node, h.Worker
	t.Response = h.ticks.Next()
	h.txns = append(h.txns, t)
}

// MergeHistory returns every transaction the recorders hold as one history,
// ordered by invocation tick: the one form internal/check reads. Ticks come
// from one TickSource, so they are unique and the order does not depend on
// the order of hs. Call it once the recorders' workers are idle.
func MergeHistory(hs ...*HistoryRecorder) []HistTxn {
	var out []HistTxn
	for _, h := range hs {
		out = append(out, h.txns...)
	}
	slices.SortFunc(out, func(a, b HistTxn) int { return cmp.Compare(a.Invoke, b.Invoke) })
	return out
}
