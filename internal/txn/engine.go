// Package txn is DrTM+R's transaction layer — the paper's primary
// contribution (§3-§5): a hybrid concurrency control protocol that runs
// strictly serializable distributed transactions by combining
//
//   - an HTM-protected OCC protocol for local records (from DBX): execution
//     is separated from commit, and only the validation+update window runs
//     inside a hardware transaction, keeping the HTM working set small;
//   - RDMA-based versioned reads and CAS locking for remote records (from
//     FaRM/DrTM), glued to the local protocol by the strong consistency of
//     one-sided RDMA (a conflicting RDMA access aborts the HTM region);
//   - an optimistic replication scheme (§5.1) that decouples local commit
//     (HTM XEND) from full commit (replication durable): a locally updated
//     record carries an odd "uncommittable" sequence number until its log
//     entries are durable on the backups, and other transactions may read
//     such records but cannot commit against them.
//
// Unlike DrTM's HTM+2PL, nothing here needs the transaction's read/write set
// in advance: the sets are simply what the execution phase touched.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

// Partitioner maps a record to its shard. Workloads define it (TPC-C
// partitions by warehouse, SmallBank by account range).
type Partitioner func(table memstore.TableID, key uint64) cluster.ShardID

// ErrNotFound is returned by Read for missing keys (a user-level outcome,
// not an abort).
var ErrNotFound = errors.New("txn: key not found")

// CostModel is the virtual-time price list for CPU-side work. RDMA verb
// costs live in the rdma package; these cover the local protocol steps.
// Defaults are Xeon-class magnitudes; they set the absolute throughput
// scale, while the protocol determines every relative effect the paper
// reports.
type CostModel struct {
	TxnOverhead time.Duration // per-transaction begin/dispatch cost
	LocalAccess time.Duration // one record read/write through HTM
	HTMRegion   time.Duration // commit-phase XBEGIN..XEND fixed cost
	PerValidate time.Duration // per record validated/updated in HTM
	Backoff     time.Duration // base retry backoff
}

// DefaultCosts matches the paper's per-machine throughput magnitude.
func DefaultCosts() CostModel {
	return CostModel{
		TxnOverhead: 2 * time.Microsecond,
		LocalAccess: 250 * time.Nanosecond,
		HTMRegion:   400 * time.Nanosecond,
		PerValidate: 120 * time.Nanosecond,
		Backoff:     700 * time.Nanosecond,
	}
}

// Knobs are the engine's tunables — the one declaration of each. Engine
// embeds it, and so does every configuration surface that forwards to an
// engine (harness.Options), so a knob is set under one name everywhere. The
// zero value is the shipped configuration.
type Knobs struct {
	// Protocol selects the commit pipeline by CommitProtocol name
	// ("" = DefaultProtocol, the DrTM+R seqlock-replication pipeline; "farm"
	// = the one-sided log-append protocol). The execution layer is
	// protocol-agnostic; only Txn.Commit dispatches on this.
	Protocol string
	// CoroutinesPerWorker is the number of logical transaction contexts a
	// worker multiplexes when driven through Worker.RunCoroutines: at every
	// RDMA doorbell the running transaction yields so another in-flight one
	// executes during the fabric round-trip (the coroutine technique of the
	// FaRM lineage). 1 disables overlap and reproduces the
	// one-transaction-per-thread behaviour exactly (the ablation baseline);
	// 0 = DefaultCoroutinesPerWorker. Read it through Coroutines.
	CoroutinesPerWorker int
	// DisableVerbBatching turns off doorbell batching in the commit
	// pipeline — ablation knob: every batch charges per-verb full
	// round-trips (the pre-batching sequential accounting), so experiments
	// can measure exactly what batching buys.
	DisableVerbBatching bool
	// ContentionMode selects the hot-record strategy (contention.go): the
	// zero value enables the hot-key FIFO gates and the commutative-delta
	// write path; ContentionOff is the pure-OCC-retry ablation.
	ContentionMode ContentionMode
	// Mut deliberately breaks protocol steps — the mutation-testing knobs
	// that prove the strict-serializability checker has teeth. Never set
	// outside tests.
	Mut Mutations
}

// DefaultCoroutinesPerWorker is the default number of in-flight transaction
// contexts per worker thread.
const DefaultCoroutinesPerWorker = 4

// Coroutines resolves CoroutinesPerWorker: 0 means the default.
func (k Knobs) Coroutines() int {
	if k.CoroutinesPerWorker <= 0 {
		return DefaultCoroutinesPerWorker
	}
	return k.CoroutinesPerWorker
}

// Engine is the per-machine transaction layer instance.
type Engine struct {
	M    *cluster.Machine
	Part Partitioner
	// Costs prices virtual time: DefaultCosts unless the caller assigns
	// another model.
	Costs CostModel
	// Replicated enables the optimistic replication scheme (Replicas>1).
	Replicated bool
	Knobs

	locCache cluster.LocCache
	cm       *contentionManager
}

// Mutations disables individual commit-protocol steps for mutation testing
// (internal/check): each switch removes one safeguard the protocol relies
// on, and the history checker must flag the resulting anomalies. All-false
// is the correct protocol.
type Mutations struct {
	// SkipRemoteValidate drops C.2's read-set checks (remote incarnation and
	// sequence-number validation): stale remote reads commit, producing lost
	// updates and write skew.
	SkipRemoteValidate bool
	// SkipLocalValidate drops C.3's read-set checks inside the commit HTM
	// region (and the fallback handler's local-read validation): stale local
	// reads commit.
	SkipLocalValidate bool
	// IgnoreLockFail makes C.1 proceed as if every lock CAS succeeded:
	// conflicting committers write back concurrently, duplicating versions.
	IgnoreLockFail bool
	// SkipIncCheck ignores incarnation changes during validation (C.2, C.3
	// and the fallback): a record deleted and re-inserted between read and
	// commit validates on sequence number alone — the stale-incarnation bug.
	SkipIncCheck bool
	// SkipROValidate makes the read-only protocol accept every header, at
	// commit and behind a read's READ alike: a read-only transaction commits
	// values that never coexisted.
	SkipROValidate bool
}

// NewEngine builds the transaction layer for machine m, priced by
// DefaultCosts. It needs nothing on the other machines: a commit ships its
// inserts and deletes of their records to them (cluster.Machine.Ship, §4.3).
func NewEngine(m *cluster.Machine, part Partitioner) *Engine {
	return &Engine{
		M:          m,
		Part:       part,
		Costs:      DefaultCosts(),
		Replicated: m.Cluster().Spec.Replicas > 1,
		cm:         newContentionManager(),
	}
}

// Worker is one worker thread: it owns a virtual clock, QPs to every peer,
// and transaction statistics. Workers are not safe for concurrent use; the
// coroutine scheduler (RunCoroutines, sched.go) multiplexes logical
// transaction contexts on a worker with strict handoff, so exactly one
// context touches the worker at any instant.
type Worker struct {
	E   *Engine
	ID  int
	Clk sim.Clock
	rng *sim.Rand

	qps     []*rdma.QP
	nextTxn uint64
	commits *atomic.Int32 // commit phases running, for recovery's epoch fence

	// txns holds the transactions runLoop is done with, for the next Begin
	// (recycle).
	txns []*Txn

	// Coroutine scheduler state (sched.go). cur is the running coroutine
	// (nil when the worker runs a single transaction the classic way);
	// htmDepth counts open commit-protocol HTM regions so yield can assert
	// that no region ever spans a scheduling point.
	sched    *scheduler
	cur      *coro
	htmDepth int

	// Rec is the worker's trace recorder (nil = tracing off; every hot-path
	// instrumentation site guards on that nil — the disabled fast path).
	// Set through EnableTrace so QPs and batches share it.
	Rec *obs.Recorder

	// Hist records every committed transaction's versioned read/write sets
	// for the strict-serializability checker (nil = off; set through
	// EnableHistory). Recording reads the clock but never advances it.
	Hist *obs.HistoryRecorder

	// gate, when non-nil, is called at every scheduling point (transaction
	// attempt start, doorbell await, backoff) and blocks until this worker
	// may proceed — the hook the deterministic-schedule harness uses to
	// serialize all workers into one reproducible interleaving.
	gate func()

	// Protocol, when non-empty, overrides the engine-wide Knobs.Protocol
	// for transactions this worker commits. The serve layer sets it per
	// stored procedure (a worker is single-goroutine, so flipping it
	// between requests is race-free).
	Protocol string

	Stats Stats
}

// CommitPhase indexes the per-phase verb/batch/latency counters of the
// commit pipeline (Fig 7 steps plus the read-only and fallback protocols).
type CommitPhase int

// Commit pipeline phases.
const (
	PhaseLock       CommitPhase = iota // C.1: lock remote read+write sets; its doorbell carries C.2's READs
	PhaseValidate                      // C.2: validate remote reads, fetch write bases
	PhaseLog                           // R.1: replication payload + publish fan-out
	PhaseWriteBack                     // C.5: write back remote updates
	PhaseUnlock                        // C.6: unlock remote records; its doorbell carries C.5's WRITEs
	PhaseROValidate                    // §4.5: read-only remote validation
	PhaseFallback                      // §6.1: fallback handler verb groups
	NumPhases
)

func (p CommitPhase) String() string {
	if p >= 0 && p < NumPhases {
		return stageNames[phaseStages[p]]
	}
	return fmt.Sprintf("CommitPhase(%d)", int(p))
}

// PhaseStat counts one commit phase's one-sided verb traffic and the virtual
// time its doorbell batches cost (Figs 10-18 latency breakdowns).
type PhaseStat struct {
	Verbs   uint64 // one-sided verbs posted
	Batches uint64 // doorbells rung (non-empty batches executed)
	Nanos   uint64 // virtual ns spent executing this phase's batches
}

// BackoffSite names the step whose retry a backoff delays: Worker.Backoff
// takes one, and Stats.BackoffSites splits the backoff counters by it.
type BackoffSite int

const (
	BackoffRetry        BackoffSite = iota // runLoop, Retry: the retry of an aborted transaction
	BackoffCommitRegion                    // C.3+C.4: the commit HTM region
	BackoffLocalRead                       // a local read's HTM region, or an uncommittable (Silo: locked) local record
	BackoffRemoteRead                      // a torn, locked or uncommittable remote record
	BackoffFallbackLock                    // §6.1: the handler's relock of the targets it missed
	BackoffMakeup                          // R.2: a local record's flip to committable
	BackoffCommitLock                      // Silo: its commit's lock of a write-set record another worker holds
	NumBackoffSites
)

var backoffSiteNames = [NumBackoffSites]string{"retry", "commit-region", "local-read", "remote-read", "fallback-lock", "makeup", "commit-lock"}

func (s BackoffSite) String() string { return backoffSiteNames[s] }

// BackoffStat counts one site's backoffs and the virtual time they advanced
// the worker clock by (its share of Counters.BackoffStallNanos).
type BackoffStat struct {
	Taken      uint64
	StallNanos uint64
}

// Counters are the scalar counters of Stats. This is the one place a counter
// is declared: harness.Result embeds Stats and serve.Status embeds Counters
// (the JSON names are /statusz's), so a field added here reaches every table
// note and the status endpoint with one line in Merge.
type Counters struct {
	Committed uint64 `json:"committed"`
	Fallbacks uint64 `json:"fallbacks"`
	Retries   uint64 `json:"retries"`

	// Coroutine overlap counters (all zero when CoroutinesPerWorker <= 1).
	// For every awaited doorbell: OverlapNanos is the share of the fabric
	// round-trip hidden behind other coroutines' work, StallNanos the share
	// the worker still had to wait out. CoYields counts scheduling points
	// taken. IdleWaits counts the sleeps the conservative idle jump took
	// (sched.go): times a worker had nothing due and waited for a slower
	// worker instead of skipping ahead of it — host cost only, never virtual
	// time. IdleGiveUps counts the waits that ran out of patience and jumped
	// anyway: not zero means a worker stopped outside the simulator while
	// others were running.
	CoYields     uint64 `json:"yields"`
	OverlapNanos uint64 `json:"overlap_ns"`
	StallNanos   uint64 `json:"stall_ns"`
	IdleWaits    uint64 `json:"idle_waits"`
	IdleGiveUps  uint64 `json:"idle_give_ups"`

	// Contention-manager counters. GateAdmissions counts every retry
	// admitted through a hot-key FIFO gate; QueueWaits / QueueWaitNanos (and
	// Stats.QueueWait) measure the admissions whose wait was positive in
	// VIRTUAL time — the waiter's clock grows only through sibling
	// coroutines' work, so a gated retry on a worker running one transaction
	// at a time is an admission but not a queue wait.
	GateAdmissions uint64 `json:"gate_admissions"`
	QueueWaits     uint64 `json:"queue_waits"`
	QueueWaitNanos uint64 `json:"queue_wait_ns"`

	// Retry-backoff counters. BackoffNanos is the delay the backoffs asked
	// for, BackoffStallNanos the part the worker clock was actually advanced
	// by: equal on a worker running one transaction at a time, and under the
	// coroutine scheduler smaller by whatever sibling contexts' work covered
	// while the backed-off one was parked (see Worker.Backoff).
	Backoffs          uint64 `json:"backoffs"`
	BackoffNanos      uint64 `json:"backoff_ns"`
	BackoffStallNanos uint64 `json:"backoff_stall_ns"`

	// Read-only-participant accounting (the protocol-matrix figure).
	// ROVerbs counts one-sided commit-pipeline verbs addressed to records
	// the transaction read but did not write: drtmrProto pays 3 per such
	// record, in 2 doorbells (C.1 lock CAS with C.2's validation READ behind
	// it, C.6 unlock CAS), farm 1 (a validation READ). ROWakeups counts
	// remote-CPU deliveries (shipped records, redo-log appends) to pure
	// read participants — nodes hosting none of the transaction's writes
	// and owing it no replication duty. Both protocols keep reads fully
	// one-sided, so ROWakeups stays zero; it is measured rather than
	// assumed (Txn.countWakeup).
	ROVerbs   uint64 `json:"ro_verbs"`
	ROWakeups uint64 `json:"ro_wakeups"`
}

// Stats counts one worker's outcomes, or, after Merge, a run's.
type Stats struct {
	Counters
	Phases [NumPhases]PhaseStat

	// BackoffSites splits Backoffs and BackoffStallNanos by the step that
	// backed off.
	BackoffSites [NumBackoffSites]BackoffStat

	// AbortMatrix counts every abort once, along reason × stage × site
	// ("1100 C.1-lock conflicts on node 2", not just "1200 lock-failed"); the
	// per-reason and total counts are its marginals. Always on: recording is
	// one array increment.
	AbortMatrix obs.AbortMatrix

	// QueueWait is the distribution behind QueueWaits / QueueWaitNanos.
	QueueWait obs.Histogram

	// KeyAborts counts aborts attributed to a specific record (whenever the
	// abort carries a key, in every contention mode); HotKeys ranks it.
	KeyAborts map[HotKey]uint64
}

// AbortsTotal sums all abort reasons.
func (s *Stats) AbortsTotal() uint64 { return s.AbortMatrix.Total() }

// KeyAbortCount is one record's attributed abort count (Stats.HotKeys).
type KeyAbortCount struct {
	Key    HotKey
	Aborts uint64
}

// HotKeys ranks KeyAborts, worst first (ties break on table then key, so the
// order is deterministic) — the per-key complement of AbortMatrix.
func (s *Stats) HotKeys() []KeyAbortCount {
	out := make([]KeyAbortCount, 0, len(s.KeyAborts))
	for k, n := range s.KeyAborts {
		out = append(out, KeyAbortCount{Key: k, Aborts: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Aborts != out[j].Aborts {
			return out[i].Aborts > out[j].Aborts
		}
		if out[i].Key.Table != out[j].Key.Table {
			return out[i].Key.Table < out[j].Key.Table
		}
		return out[i].Key.Key < out[j].Key.Key
	})
	return out
}

// Merge folds another worker's stats into s (harness roll-up, /statusz):
// every counter sums. TestStatsMergeCoversEveryField fails when a field is
// missing here.
func (s *Stats) Merge(o *Stats) {
	s.Committed += o.Committed
	s.Fallbacks += o.Fallbacks
	s.Retries += o.Retries
	s.CoYields += o.CoYields
	s.OverlapNanos += o.OverlapNanos
	s.StallNanos += o.StallNanos
	s.IdleWaits += o.IdleWaits
	s.IdleGiveUps += o.IdleGiveUps
	s.GateAdmissions += o.GateAdmissions
	s.QueueWaits += o.QueueWaits
	s.QueueWaitNanos += o.QueueWaitNanos
	s.Backoffs += o.Backoffs
	s.BackoffNanos += o.BackoffNanos
	s.BackoffStallNanos += o.BackoffStallNanos
	s.ROVerbs += o.ROVerbs
	s.ROWakeups += o.ROWakeups
	for i, p := range o.Phases {
		s.Phases[i].Verbs += p.Verbs
		s.Phases[i].Batches += p.Batches
		s.Phases[i].Nanos += p.Nanos
	}
	for i, b := range o.BackoffSites {
		s.BackoffSites[i].Taken += b.Taken
		s.BackoffSites[i].StallNanos += b.StallNanos
	}
	s.AbortMatrix.Merge(&o.AbortMatrix)
	s.QueueWait.Merge(&o.QueueWait)
	if len(o.KeyAborts) > 0 && s.KeyAborts == nil {
		s.KeyAborts = make(map[HotKey]uint64, len(o.KeyAborts))
	}
	for k, n := range o.KeyAborts {
		s.KeyAborts[k] += n
	}
}

// NewWorker creates worker id on this engine.
func (e *Engine) NewWorker(id int) *Worker {
	w := &Worker{E: e, ID: id, rng: sim.NewRand(uint64(id)*0x9E37 + uint64(e.M.ID) + 1), commits: e.M.Commits()}
	n := e.M.Cluster().Spec.Nodes
	w.qps = make([]*rdma.QP, n)
	for i := 0; i < n; i++ {
		w.qps[i] = e.M.Cluster().Net.NewQP(e.M.ID, rdma.NodeID(i), &w.Clk)
	}
	return w
}

// QP returns the worker's queue pair to node.
func (w *Worker) QP(node rdma.NodeID) *rdma.QP { return w.qps[node] }

// EnableTrace attaches a fresh ring-buffer trace recorder (capacity 0 =
// obs.DefaultCapacity) to this worker and to every QP it owns, and returns
// it. Recording adds ZERO virtual time — events only read the clock — so
// enabling tracing never changes simulated results; with tracing off the
// per-site nil checks are the whole cost.
func (w *Worker) EnableTrace(capacity int) *obs.Recorder {
	r := obs.NewRecorder(int(w.E.M.ID), w.ID, capacity)
	w.Rec = r
	for _, qp := range w.qps {
		qp.SetRecorder(r)
	}
	return r
}

// EnableHistory attaches a history recorder drawing timestamps from the
// run-global tick source ts; committed transactions land in it with their
// versioned read/write sets for the strict-serializability checker.
func (w *Worker) EnableHistory(ts *obs.TickSource) *obs.HistoryRecorder {
	h := obs.NewHistoryRecorder(int(w.E.M.ID), w.ID, ts)
	w.Hist = h
	return h
}

// SetGate installs the deterministic-schedule gate: g is called at every
// scheduling point and must block until this worker may run. nil removes it.
func (w *Worker) SetGate(g func()) { w.gate = g }

// ExecBatch rings the doorbell on b and charges its verbs, doorbell and
// virtual latency to the given commit phase's counters. Empty batches cost
// (and count) nothing. Under the coroutine scheduler the doorbell is a
// yield point: other in-flight transactions run during the round-trip and
// Nanos records elapsed virtual time at this doorbell (identical to the
// synchronous charge when nothing overlaps). id is the transaction the phase
// trace event names — under coroutine interleaving the worker has no
// well-defined "current transaction".
func (w *Worker) ExecBatch(phase CommitPhase, id uint64, b *rdma.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	start := w.Clk.Now()
	err := w.await(b.ExecuteAsync())
	ps := &w.Stats.Phases[phase]
	ps.Batches++
	ps.Verbs += uint64(n)
	ps.Nanos += uint64(w.Clk.Now() - start)
	if w.Rec != nil {
		w.Rec.Record(obs.EvPhase, phaseStages[phase], 0, uint32(n), id, start, w.Clk.Now())
	}
	return err
}

// MoveVerbs counts n verbs that rode phase's doorbell to their own stage's
// phase: a fused doorbell's Batches, Nanos and trace span belong to the CAS
// that sets its base latency, each verb to the stage Fig 7 draws it in.
func (w *Worker) MoveVerbs(phase, own CommitPhase, n int) {
	w.Stats.Phases[phase].Verbs -= uint64(n)
	w.Stats.Phases[own].Verbs += uint64(n)
}

// Backoff is §4.3's randomized exponential retry delay: d drawn from
// [1, 2^min(attempt, DefaultBackoffMaxExp)] * Costs.Backoff. Under the coroutine
// scheduler it is a timed park (sched.go), not a charge to the clock: the
// delay belongs to this transaction, and the worker's clock is shared by all
// its in-flight contexts, so advancing it up front would make every sibling
// pay one context's wait. Parked until now+d, the context is charged on
// resume only what sibling work has not already covered — the same
// accounting as a doorbell. With no scheduler (N=1, the serve executors, a
// plain Worker.Run) nobody else can use the time and the whole delay is
// charged, exactly — and, free-running, also spent on the host (sim.Spin):
// a backoff is the one step that moves the clock without host work, so a
// waiter that only yielded retried a thousand times per step of a holder the
// host kept off the CPU, and charged itself 100-400 ms for a 5 us hold in
// one serve run in ten. Spun, its wait is at most the host time the holder lost.
// site is the step that backs off, for Stats.BackoffSites.
func (w *Worker) Backoff(site BackoffSite, attempt int) {
	maxExp := 1 << uint(min(attempt, DefaultBackoffMaxExp))
	d := time.Duration(1+w.rng.Intn(maxExp)) * w.E.Costs.Backoff
	deadline := w.Clk.Now() + int64(d)
	w.yield(deadline, false) // let another in-flight transaction (maybe the lock holder) run
	stall := uint64(w.Clk.WaitUntil(deadline))
	w.Stats.Backoffs++
	w.Stats.BackoffNanos += uint64(d)
	w.Stats.BackoffStallNanos += stall
	w.Stats.BackoffSites[site].Taken++
	w.Stats.BackoffSites[site].StallNanos += stall
	w.E.M.Cluster().Report(w.Clk.Now())
	if w.sched == nil && w.gate == nil {
		sim.Spin(d)
		return
	}
	w.Cede()
}

// Retry is the retry loop of a system that runs its own protocol on this
// worker (the comparison systems): attempt runs until it returns nil, a
// commit, or an error that is not aborted, which Retry returns. Each attempt
// starts at a scheduling point, as runLoop's do; each abort counts a retry
// and backs off at BackoffRetry.
func (w *Worker) Retry(attempt func() error, aborted error) error {
	for i := 0; ; i++ {
		if w.gate != nil {
			w.gate()
		}
		err := attempt()
		if err == nil {
			w.Stats.Committed++
			return nil
		}
		if !errors.Is(err, aborted) {
			return err
		}
		w.Stats.Retries++
		w.Backoff(BackoffRetry, i)
	}
}

// Run executes fn as a transaction with automatic retry on aborts. fn may be
// re-executed; it must be idempotent up to its writes (standard OCC
// contract). Returns the first non-abort error whose attempt's reads
// validate (Txn.answer), or nil once committed. A panic in fn is re-raised
// on the same terms: an attempt whose reads are stale is retried instead.
//
// The *Txn fn is given belongs to fn only while fn runs: once the attempt
// has ended the worker hands it to a later transaction, so fn must not keep
// it. The values it returned are fn's to keep: they outlive it.
func (w *Worker) Run(fn func(tx *Txn) error) error {
	return w.runLoop(fn, (*Worker).Begin)
}

// RunReadOnly is Run for read-only transactions (§4.5's separate protocol).
func (w *Worker) RunReadOnly(fn func(tx *Txn) error) error {
	return w.runLoop(fn, (*Worker).BeginReadOnly)
}

// runLoop is the shared retry loop: run, commit, attribute any abort
// (stats + reason×stage×site matrix + trace events), back off, retry. When
// an abort names a key the hot-key detector sees it (contention.go); once a
// key is hot the NEXT attempt queues on its FIFO gate first, so hot-record
// retries take turns instead of re-paying full optimistic executions that
// trample each other.
func (w *Worker) runLoop(fn func(tx *Txn) error, begin func(*Worker) *Txn) error {
	var (
		nextGate *keyGate
		nextKey  HotKey
	)
	for attempt := 0; ; attempt++ {
		if w.gate != nil {
			w.gate()
		}
		var held *keyGate
		if nextGate != nil {
			g, hk := nextGate, nextKey
			nextGate = nil
			ok, qerr := w.acquireGate(g, hk)
			switch {
			case ok:
				held = g
			case qerr != nil:
				// Admission timed out (or this machine died): account it
				// like any abort, then retry ungated.
				w.Stats.AbortMatrix.Record(uint8(qerr.Reason), qerr.Stage, int(qerr.Site))
				w.Stats.Retries++
				if w.E.M.Dead() {
					return qerr
				}
				w.Backoff(BackoffRetry, attempt)
				continue
			}
		}
		// The trace's attempt span covers Begin's TxnOverhead; the history's
		// interval (the serve workload's virtual latency) starts after it.
		traced := w.Clk.Now()
		tx := begin(w)
		start := w.Clk.Now()
		// Invocation timestamp for the history: drawn before the attempt's
		// first read, so a retried transaction's interval covers only the
		// attempt that actually committed.
		var invTick uint64
		if w.Hist != nil {
			invTick = w.Hist.Tick()
		}
		if w.Rec != nil {
			w.Rec.Record(obs.EvTxnBegin, 0, 0, uint32(attempt), tx.id, traced, traced)
		}
		panicked, err := call(fn, tx)
		if panicked == nil && err == nil {
			err = tx.Commit() // ends the attempt
		} else {
			if panicked != nil {
				err = tx.answer(nil)
			} else if _, ok := asError(err); !ok {
				err = tx.answer(err)
			}
			tx.endAttempt()
		}
		if held != nil {
			held.release()
		}
		if panicked != nil && err == nil {
			w.recycle(tx)
			panic(panicked) // validated: the body's own panic, not a zombie's
		}
		if err == nil {
			w.Stats.Committed++
			if w.Hist != nil {
				// A commit that raced this machine's own death may or may
				// not have survived into the surviving configuration: record
				// it as maybe-committed so the checker includes it only if
				// someone observed it.
				w.Hist.Add(tx.histTxn(invTick, start, w.E.M.Dead()))
			}
			if w.Rec != nil {
				w.Rec.Record(obs.EvTxnCommit, 0, 0, uint32(attempt), tx.id, traced, w.Clk.Now())
			}
			w.recycle(tx)
			return nil
		}
		id, epoch := tx.id, tx.cfg.Epoch
		w.recycle(tx)
		te, ok := asError(err)
		if !ok {
			return err // validated user error: not retried
		}
		w.Stats.AbortMatrix.Record(uint8(te.Reason), te.Stage, int(te.Site))
		w.Stats.Retries++
		if w.Rec != nil {
			w.Rec.Record(obs.EvTxnAbort, te.Stage, te.Site, uint32(te.Reason), id, traced, w.Clk.Now())
		}
		if te.HasKey {
			if g := w.noteAbortKey(te); g != nil {
				nextGate, nextKey = g, HotKey{Table: te.Table, Key: te.Key}
			}
		}
		if w.E.M.Dead() {
			// This machine was killed: it is fail-stopped from the cluster's
			// point of view, so stop retrying — whatever the abort reason.
			// (A zombie can spin forever on AbortLocked: the survivor that
			// holds the lock can never deliver its unlock verb through our
			// dark NIC.)
			return err
		}
		if te.Reason == AbortNodeDead {
			// Wait for the configuration to change before retrying.
			w.waitEpochChange(epoch)
		}
		w.Backoff(BackoffRetry, attempt)
	}
}

// call runs fn on tx, returning what fn panicked with instead of letting
// it unwind runLoop: a zombie's panic is validated like its user error.
func call(fn func(tx *Txn) error, tx *Txn) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, fn(tx)
}

// waitEpochChange waits for a configuration newer than epoch, the one a
// transaction that hit a dead machine ran under. Waiting lets virtual time
// pass, and only then: when the failure plane has not moved since the last
// look, no newer configuration is committed yet (recovery is uncharged) and
// no scheduler worker is short of the next tick, the waiter moves its clock
// to that tick and reports it, so an all-waiting cluster still reaches lease
// expiry. On return the worker's clock is at the failure plane's time.
func (w *Worker) waitEpochChange(epoch uint64) {
	if w.commits.Load() > 0 {
		// A sibling context is mid-commit, and recovery waits for it: do not
		// block the worker under it. The caller's backoff parks instead.
		return
	}
	s := w.sched
	if s != nil {
		// Other workers' idle jumps must not wait for this one.
		s.idleUntil(sim.Forever)
		defer s.busy()
	}
	c := w.E.M.Cluster()
	seen := c.Now()
	for i := 0; i < 1000 && w.E.M.Config().Epoch <= epoch && !w.E.M.Dead(); i++ {
		sim.Spin(500 * time.Microsecond)
		if now := c.Now(); now != seen || c.Coord.Epoch() > epoch {
			seen = now
			continue
		}
		t := c.NextTick()
		if s != nil {
			if x := s.run.Behind(t); x != nil {
				s.run.Follow(x, t) // a working worker gets there first
				continue
			}
		}
		w.Clk.AdvanceTo(t)
		c.Report(t)
		seen = c.Now()
	}
	w.Clk.AdvanceTo(c.Now())
}
