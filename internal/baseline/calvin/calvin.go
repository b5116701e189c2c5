// Package calvin implements the Calvin baseline (Thomson et al.,
// SIGMOD'12): deterministic distributed transaction processing. The paper
// compares against the released Calvin code running over IPoIB (no RDMA
// verbs, no HTM) and finds DrTM+R at least 26.8x faster on TPC-C.
//
// Architecture reproduced here:
//
//   - A sequencing layer assigns every transaction a global sequence number
//     and disseminates it to all participant partitions — modelled as an
//     atomic ticket counter plus one IPoIB-class message per remote
//     participant, matching Calvin's per-epoch batch broadcast cost
//     amortized per transaction.
//   - A deterministic lock manager per machine: locks are granted strictly
//     in sequence order (FIFO queues per record), so the execution is
//     deterministic and needs no distributed commit protocol.
//   - Execution: single-partition transactions run locally once their locks
//     are granted; multi-partition transactions exchange their remote reads
//     over two-sided messaging (each remote record costs an IPoIB
//     round-trip, charged to the worker's virtual clock) and apply their
//     local writes.
//
// Like the real system, Calvin requires the read/write sets in advance (the
// restriction the paper's Table 1 lists), so the driver passes declared
// refs. Logging/replication is disabled, as in the released code the paper
// benchmarked.
//
// Its workers are DrTM+R's (txn.Worker), one txn.Engine per machine: the
// engine's partitioner places records and its cost model prices local
// accesses, and the clock, counters, retry loop and deterministic gate are
// the ones every other system runs on. A worker waiting for its locks polls
// through Worker.Cede and resumes at the instant the last holder released
// them, so the wait lasts the holders' virtual hold, not the host's polls.
package calvin

import (
	"fmt"
	"sync"
	"time"

	"drtmr/internal/baseline"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// Calvin's own costs; a local record access is priced by the engine.
const (
	// msgLatency is one message: Calvin runs on IPoIB.
	msgLatency = 40 * time.Microsecond
	// schedCost models the sequencer/scheduler CPU per transaction per
	// participant (batching, epoch management, dispatch).
	schedCost = 4 * time.Microsecond
	// lmService is the single-threaded lock manager service time per
	// lock operation — Calvin's well-known scalability bottleneck,
	// modelled as a virtual-time resource per machine.
	lmService = 700 * time.Nanosecond
)

// System is the cluster-wide Calvin deployment (sequencer + per-machine
// lock managers).
type System struct {
	seqMu sync.Mutex
	seqNo uint64
	lms   []*lockManager
}

// New builds Calvin's sequencer and a lock manager for each of a cluster's
// nodes machines.
func New(nodes int) *System {
	s := &System{}
	for range nodes {
		s.lms = append(s.lms, &lockManager{locks: make(map[baseline.Ref]*lockQueue)})
	}
	return s
}

// lockManager is a deterministic per-machine lock table: requests enqueue in
// sequence order and are granted FIFO. A lock is named by its record's table
// and key (a baseline.Ref with Write false).
type lockManager struct {
	mu    sync.Mutex
	locks map[baseline.Ref]*lockQueue
	// service models the single lock-manager thread in virtual time.
	service sim.Resource
}

type lockQueue struct {
	holders []uint64 // sequence numbers waiting/holding, FIFO
	// released is the virtual instant its last holder released it.
	released int64
}

// enqueue registers seq for every local ref, FIFO. The sequencer calls this
// under its global critical section, so arrival order IS sequence order —
// the deterministic property that makes grant-in-queue-order deadlock-free.
func (lm *lockManager) enqueue(seq uint64, refs []baseline.Ref) {
	lm.mu.Lock()
	for _, rk := range refs {
		q := lm.locks[rk]
		if q == nil {
			q = &lockQueue{}
			lm.locks[rk] = q
		}
		q.holders = append(q.holders, seq)
	}
	lm.mu.Unlock()
}

// granted reports whether seq holds all its locks (is at each queue head)
// and, if it does, the latest instant an earlier holder released one.
func (lm *lockManager) granted(seq uint64, refs []baseline.Ref) (released int64, ok bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, rk := range refs {
		q := lm.locks[rk]
		if q == nil || len(q.holders) == 0 || q.holders[0] != seq {
			return 0, false
		}
		released = max(released, q.released)
	}
	return released, true
}

// release drops seq's locks at virtual instant at. A queue it empties stays,
// with that instant: the next holder in sequence order runs after it however
// far its own clock is behind.
func (lm *lockManager) release(seq uint64, refs []baseline.Ref, at int64) {
	lm.mu.Lock()
	for _, rk := range refs {
		q := lm.locks[rk]
		if q == nil {
			continue
		}
		for i, h := range q.holders {
			if h == seq {
				q.holders = append(q.holders[:i], q.holders[i+1:]...)
				break
			}
		}
		q.released = at
	}
	lm.mu.Unlock()
}

// Worker is one Calvin worker thread on a machine.
type Worker struct {
	*txn.Worker
	S *System
}

// NewWorker creates worker id on e's machine.
func (s *System) NewWorker(e *txn.Engine, id int) *Worker {
	return &Worker{Worker: e.NewWorker(id), S: s}
}

// record is one declared record of a transaction: where it lives, and its
// offset and value once the locks are held.
type record struct {
	ref  baseline.Ref
	node rdma.NodeID
	tbl  *memstore.Table
	off  uint64
	val  []byte
}

// bodyCtx is the baseline.Ctx of an executing transaction (all locks held).
type bodyCtx struct {
	recs map[baseline.Ref]*record // by table and key, Write false
	all  []*record                // the same, in declaration order
}

// Get returns a declared record's value.
func (c *bodyCtx) Get(table memstore.TableID, key uint64) ([]byte, error) {
	if r := c.recs[baseline.Ref{Table: table, Key: key}]; r != nil {
		return r.val, nil
	}
	return nil, fmt.Errorf("calvin: undeclared access %d/%d", table, key)
}

// Put replaces a declared record's value (applied locally at the owning
// partition after the body runs).
func (c *bodyCtx) Put(table memstore.TableID, key uint64, value []byte) error {
	r := c.recs[baseline.Ref{Table: table, Key: key}]
	if r == nil || !r.ref.Write {
		return fmt.Errorf("calvin: undeclared write %d/%d", table, key)
	}
	r.val = append([]byte(nil), value...)
	return nil
}

// Run executes one deterministic transaction with declared refs. Calvin
// never aborts: a body's error is returned as it is.
func (w *Worker) Run(refs []baseline.Ref, body func(baseline.Ctx) error) error {
	return w.Retry(func() error { return w.run(refs, body) }, nil)
}

// run is the one attempt: sequence, await the grants, execute, release.
func (w *Worker) run(refs []baseline.Ref, body func(baseline.Ctx) error) error {
	s := w.S
	ctx, keys := w.place(refs)
	// Global sequencing point: the sequence number is assigned and the
	// transaction enqueued at EVERY participant's lock manager atomically,
	// so queues are in global sequence order (Calvin's determinism). The
	// lock-manager service time is charged against each machine's single
	// lock-manager thread in virtual time, participants in node order.
	s.seqMu.Lock()
	s.seqNo++
	seq := s.seqNo
	for node, ks := range keys {
		if len(ks) == 0 {
			continue
		}
		lm := s.lms[node]
		w.Clk.AdvanceTo(lm.service.Use(w.Clk.Now(), time.Duration(len(ks))*lmService))
		lm.enqueue(seq, ks)
	}
	s.seqMu.Unlock()
	w.awaitGrants(seq, keys)
	err := w.execute(ctx, body)
	for node, ks := range keys {
		s.lms[node].release(seq, ks, w.Clk.Now())
	}
	return err
}

// place finds every declared record's machine once (a record declared twice
// is written if either declaration says so) and lists the lock keys of each
// machine, indexed by node. It charges the sequencer's dissemination: the
// scheduler's CPU per participant and a message per remote one.
func (w *Worker) place(refs []baseline.Ref) (*bodyCtx, [][]baseline.Ref) {
	cfg := w.E.M.Config()
	ctx := &bodyCtx{recs: make(map[baseline.Ref]*record, len(refs))}
	keys := make([][]baseline.Ref, len(w.S.lms))
	for _, ref := range refs {
		rk := baseline.Ref{Table: ref.Table, Key: ref.Key}
		if prev := ctx.recs[rk]; prev != nil {
			prev.ref.Write = prev.ref.Write || ref.Write
			continue
		}
		r := &record{ref: ref, node: cfg.PrimaryOf(w.E.Part(ref.Table, ref.Key))}
		ctx.recs[rk] = r
		ctx.all = append(ctx.all, r)
		if len(keys[r.node]) == 0 {
			w.Clk.Advance(schedCost)
			if r.node != w.E.M.ID {
				w.Clk.Advance(msgLatency)
			}
		}
		keys[r.node] = append(keys[r.node], rk)
	}
	return ctx, keys
}

// awaitGrants parks until seq heads every queue it joined, polling through
// Cede, and moves the clock to the latest instant an earlier holder released
// one of its locks.
func (w *Worker) awaitGrants(seq uint64, keys [][]baseline.Ref) {
	for node, ks := range keys {
		released, ok := w.S.lms[node].granted(seq, ks)
		for ; !ok; released, ok = w.S.lms[node].granted(seq, ks) {
			w.Cede()
		}
		w.Clk.AdvanceTo(released)
	}
}

// access charges one record access from this worker: a local one at the
// engine's price, a remote one as an IPoIB message (Calvin pushes reads to
// peers, and remote writes ride messages).
func (w *Worker) access(node rdma.NodeID) {
	if node == w.E.M.ID {
		w.Clk.Advance(w.E.Costs.LocalAccess)
	} else {
		w.Clk.Advance(msgLatency)
	}
}

// execute runs body with every lock held: it collects the declared records'
// values, runs the body and applies the writes at their partitions.
func (w *Worker) execute(ctx *bodyCtx, body func(baseline.Ctx) error) error {
	machines := w.E.M.Cluster().Machines
	for _, r := range ctx.all {
		r.tbl = machines[r.node].Store.Table(r.ref.Table)
		var ok bool
		if r.off, ok = r.tbl.Lookup(r.ref.Key); !ok {
			return fmt.Errorf("calvin: missing record %d/%d", r.ref.Table, r.ref.Key)
		}
		w.access(r.node)
		img := machines[r.node].Eng.ReadNonTx(r.off, r.tbl.RecBytes, nil)
		r.val = memstore.GatherValue(img, r.tbl.Spec.ValueSize)
	}
	if err := body(ctx); err != nil {
		return err
	}
	for _, r := range ctx.all {
		if !r.ref.Write {
			continue
		}
		w.access(r.node)
		eng := machines[r.node].Eng
		inc := eng.Load64NonTx(r.off + memstore.IncOff)
		cur := eng.Load64NonTx(r.off + memstore.SeqOff)
		img := memstore.BuildRecordImage(r.tbl.Spec.ValueSize, r.val, inc, cur+1)
		eng.WriteNonTx(r.off+8, img[8:])
	}
	return nil
}

// Insert adds a record deterministically (loader-style; Calvin handles
// inserts through its scheduler, modelled here as a locked single-record
// transaction).
func (w *Worker) Insert(table memstore.TableID, key uint64, value []byte) error {
	node := w.E.M.Config().PrimaryOf(w.E.Part(table, key))
	if node != w.E.M.ID {
		w.Clk.Advance(msgLatency)
	}
	w.Clk.Advance(schedCost + w.E.Costs.LocalAccess)
	_, err := w.E.M.Cluster().Machines[node].Store.Table(table).Insert(key, value)
	return err
}
