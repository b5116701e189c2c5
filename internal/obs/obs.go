// Package obs is the observability layer: a low-overhead, virtual-time-aware
// trace recorder, log-bucketed latency histograms, and an abort-attribution
// matrix. The paper evaluates DrTM+R on latency distributions and abort
// behaviour (§7, Figs 11-12, Table 6), not just mean throughput; this package
// gives the harness the per-phase and per-cause visibility those figures
// need.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrumentation site in the hot path is
//     guarded by a nil-check on the worker's recorder pointer; with tracing
//     off no event is built and no allocation happens. Virtual-time
//     accounting is NEVER affected either way — recording only reads clocks.
//  2. Allocation-free when enabled. A Recorder is a preallocated ring of
//     fixed-size Event structs; Record overwrites the oldest event once the
//     ring wraps, so a long run keeps its most recent window.
//  3. One writer per recorder. Workers own their recorder exactly like their
//     virtual clock; the cluster serializes the milestones it records from
//     several goroutines itself.
//
// Events carry virtual timestamps on one timeline: worker clocks, and for
// recovery milestones the cluster's failure-plane clock. Export to Chrome
// trace-event / Perfetto JSON lives in trace.go; histograms in hist.go; the
// abort matrix in abort.go.
package obs

// Kind classifies a trace event.
type Kind uint8

// Event kinds. The Detail / Site / Arg fields are kind-specific:
//
//	EvTxnBegin   instant at transaction begin; Arg = attempt number
//	EvTxnCommit  span begin→commit of the committing attempt; Arg = attempt
//	EvTxnAbort   span begin→abort of one attempt; Detail = stage code,
//	             Site = node the abort was attributed to, Arg = abort reason
//	EvPhase      span of one commit-pipeline phase; Detail = stage code,
//	             Arg = one-sided verbs in the phase's doorbell batch
//	EvHTM        span XBEGIN→XEND/XABORT of one hardware transaction;
//	             Detail = abort cause (0 = committed), Arg = XABORT code
//	EvDoorbell   span post→complete of one doorbell; Site = target node
//	             (SiteMulti when one batch targets several), Arg = verbs
//	EvYield      span park→resume of a coroutine scheduling point
//	EvMilestone  instant recovery milestone; Detail = milestone code,
//	             Site = the node the milestone concerns
type Event struct {
	Kind   Kind
	Detail uint8
	Site   uint16
	Arg    uint32
	ID     uint64 // transaction id, when one is in scope
	Start  int64  // virtual ns
	End    int64  // ns; == Start for instant events
}

// Event kinds.
const (
	EvTxnBegin Kind = iota
	EvTxnCommit
	EvTxnAbort
	EvPhase
	EvHTM
	EvDoorbell
	EvYield
	EvMilestone
	numKinds
)

func (k Kind) String() string {
	switch k {
	case EvTxnBegin:
		return "txn-begin"
	case EvTxnCommit:
		return "txn-commit"
	case EvTxnAbort:
		return "txn-abort"
	case EvPhase:
		return "phase"
	case EvHTM:
		return "htm"
	case EvDoorbell:
		return "doorbell"
	case EvYield:
		return "yield"
	case EvMilestone:
		return "milestone"
	default:
		return "?"
	}
}

// SiteMulti marks a doorbell batch that targeted more than one node.
const SiteMulti uint16 = 0xFFFF

// Recovery milestone codes (EvMilestone Detail).
const (
	MilestoneKilled uint8 = iota
	MilestoneSuspect
	MilestoneConfigCommit
	MilestoneRecoveryDone
)

// MilestoneName names a milestone code.
func MilestoneName(c uint8) string {
	switch c {
	case MilestoneKilled:
		return "killed"
	case MilestoneSuspect:
		return "suspect"
	case MilestoneConfigCommit:
		return "config-commit"
	case MilestoneRecoveryDone:
		return "recovery-done"
	default:
		return "milestone?"
	}
}

// Recorder is a fixed-capacity ring buffer of trace events. It belongs to ONE
// writer at a time (the worker that owns the clock whose timestamps it
// records, or the cluster's milestone lock).
type Recorder struct {
	// Pid/Tid identify the recorder in exported traces (machine and worker
	// thread for workers; Pid -1 for the cluster-level milestone recorder).
	Pid, Tid int

	ev []Event
	n  uint64 // total events ever recorded
}

// DefaultCapacity is the per-worker ring size used when callers pass 0.
const DefaultCapacity = 1 << 15

// NewRecorder creates a single-writer recorder with the given ring capacity
// (0 = DefaultCapacity). The ring is fully preallocated: Record never
// allocates.
func NewRecorder(pid, tid, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{Pid: pid, Tid: tid, ev: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest once the ring is full.
// It never allocates. Callers guard the call with a nil check on the
// recorder pointer — that nil check IS the disabled fast path.
func (r *Recorder) Record(k Kind, detail uint8, site uint16, arg uint32, id uint64, start, end int64) {
	e := &r.ev[r.n%uint64(len(r.ev))]
	e.Kind, e.Detail, e.Site, e.Arg, e.ID, e.Start, e.End = k, detail, site, arg, id, start, end
	r.n++
}

// Len returns the number of events currently held (≤ capacity).
func (r *Recorder) Len() int {
	if r.n < uint64(len(r.ev)) {
		return int(r.n)
	}
	return len(r.ev)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r.n < uint64(len(r.ev)) {
		return 0
	}
	return r.n - uint64(len(r.ev))
}

// Events returns a copy of the held events in recording order (oldest
// first). Call it only after the writer has finished.
func (r *Recorder) Events() []Event {
	capN := uint64(len(r.ev))
	if r.n <= capN {
		return append([]Event(nil), r.ev[:r.n]...)
	}
	out := make([]Event, 0, capN)
	head := r.n % capN // oldest surviving event
	out = append(out, r.ev[head:]...)
	out = append(out, r.ev[:head]...)
	return out
}
