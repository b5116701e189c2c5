// Package drtm implements the DrTM baseline (Wei et al., SOSP'15): the
// paper's closest prior system, combining HTM with two-phase locking over
// RDMA. Its two defining differences from DrTM+R, both of which the
// evaluation figures hinge on:
//
//  1. It requires the transaction's read/write sets A PRIORI: remote records
//     are locked (and fetched) before execution, and the whole transaction
//     body — actual data accesses, not just metadata — runs inside ONE large
//     HTM region. The big region is why DrTM degrades as threads and
//     working sets grow (Figs 11, 18): more lines in the read/write set mean
//     more capacity pressure and a larger conflict window.
//  2. No replication support; locks are exclusive (our simplification of
//     DrTM's lease-based shared locks — conservative for read-heavy mixes,
//     matching the paper's observation that DrTM falls to a slow path more
//     often under contention).
//
// The workload driver must precompute the sets (the restriction DrTM+R
// removes); TPC-C dependent transactions are handled the way DrTM really
// handled them — with knowledge extracted before execution (the paper used
// transaction chopping).
//
// Its engine and worker ARE DrTM+R's (txn.Engine, txn.Worker) with DrTM's
// protocol on top: queue pairs, doorbells and their per-phase counters
// (Stats.Phases), the location cache (Worker.Locate), the one lock stage
// (Worker.LockBatch), the retry loop (Worker.Retry) and backoff are shared,
// so a figure compares the protocols and not two implementations of the
// primitives.
package drtm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"drtmr/internal/baseline"
	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/txn"
)

// Engine is the per-machine DrTM instance. Of txn.Knobs only
// DisableVerbBatching applies to it.
type Engine struct {
	*txn.Engine
}

// NewEngine builds DrTM on machine m.
func NewEngine(m *cluster.Machine, part txn.Partitioner, cost txn.CostModel) *Engine {
	return &Engine{txn.NewEngine(m, part, cost)}
}

// Worker is one DrTM worker thread.
type Worker struct {
	*txn.Worker
}

// NewWorker creates worker id.
func (e *Engine) NewWorker(id int) *Worker {
	return &Worker{e.Engine.NewWorker(id)}
}

// bodyCtx is the baseline.Ctx handed to the transaction body: all remote
// records are pre-fetched (and locked); local records go through the big
// HTM region.
type bodyCtx struct {
	w     *Worker
	htx   *htm.Txn
	noHTM bool                       // fallback mode: plain accesses under locks
	refs  map[baseline.Ref]*refState // keyed by table and key, Write false
	// the remote and the local declared records, each in (node, off) order,
	// the global lock order.
	remote, local []*refState
	// run holds the attempt's locks: the remote records' (Fetched[i] is
	// remote[i] as the growing phase READ it), then the fallback's.
	run txn.LockRun
}

// refState is one declared record in one attempt.
type refState struct {
	ref   baseline.Ref
	tbl   *memstore.Table
	local bool
	node  rdma.NodeID
	off   uint64
	inc   uint64 // remote: the incarnation its cached location names
	// val is a remote record's value as the growing phase READ it under its
	// lock, put what the body wrote (dirty says it did).
	val, put []byte
	dirty    bool
}

// ErrAborted is returned when the transaction cannot make progress and the
// caller should retry.
var ErrAborted = errors.New("drtm: aborted")

// Get reads a declared record.
func (c *bodyCtx) Get(table memstore.TableID, key uint64) ([]byte, error) {
	st := c.refs[baseline.Ref{Table: table, Key: key}]
	if st == nil {
		return nil, fmt.Errorf("drtm: undeclared access %d/%d", table, key)
	}
	if st.dirty {
		return st.put, nil
	}
	if !st.local {
		return st.val, nil
	}
	// Single-pass execution inside one region: no separate per-read HTM
	// begin/commit and no read-set buffer maintenance.
	c.w.Clk.Advance(c.w.E.Costs.LocalAccess * 3 / 4)
	if c.noHTM {
		img := c.w.E.M.Eng.ReadNonTx(st.off, st.tbl.RecBytes, nil)
		return memstore.GatherValue(img, st.tbl.Spec.ValueSize), nil
	}
	// Inside the big HTM region: check the lock word first (a remote
	// transaction may hold the record), then read the record data.
	lockW, err := c.htx.Load64(st.off + memstore.LockOff)
	if err != nil {
		return nil, ErrAborted
	}
	if lockW != 0 {
		c.htx.Abort(0x21)
		return nil, ErrAborted
	}
	img, err := c.htx.Read(st.off, st.tbl.RecBytes, nil)
	if err != nil {
		return nil, ErrAborted
	}
	return memstore.GatherValue(img, st.tbl.Spec.ValueSize), nil
}

// Put writes a declared record.
func (c *bodyCtx) Put(table memstore.TableID, key uint64, value []byte) error {
	st := c.refs[baseline.Ref{Table: table, Key: key}]
	if st == nil || !st.ref.Write {
		return fmt.Errorf("drtm: undeclared write %d/%d", table, key)
	}
	if !st.local {
		st.put, st.dirty = append(st.put[:0], value...), true
		return nil
	}
	c.w.Clk.Advance(c.w.E.Costs.LocalAccess)
	inc := c.w.E.M.Eng.Load64NonTx(st.off + memstore.IncOff)
	if c.noHTM {
		seq := c.w.E.M.Eng.Load64NonTx(st.off + memstore.SeqOff)
		full := memstore.BuildRecordImage(st.tbl.Spec.ValueSize, value, inc, seq+1)
		c.w.E.M.Eng.WriteNonTx(st.off+8, full[8:])
		return nil
	}
	seq, err := c.htx.Load64(st.off + memstore.SeqOff)
	if err != nil {
		return ErrAborted
	}
	full := memstore.BuildRecordImage(st.tbl.Spec.ValueSize, value, inc, seq+1)
	if err := c.htx.Write(st.off+8, full[8:]); err != nil {
		return ErrAborted
	}
	return nil
}

// Run executes a transaction with declared refs: lock and fetch the remote
// records (2PL growing phase), run the body in one big HTM region, write
// back and unlock (shrinking phase).
func (w *Worker) Run(refs []baseline.Ref, body func(baseline.Ctx) error) error {
	return w.Retry(func() error { return w.attempt(refs, body) }, ErrAborted)
}

const (
	bigHTMRetries = 8
	// fallbackLockPasses bounds the fallback's loop-back lock doorbells.
	fallbackLockPasses = 64
)

func (w *Worker) attempt(refs []baseline.Ref, body func(baseline.Ctx) error) error {
	w.Clk.Advance(w.E.Costs.TxnOverhead)
	ctx, err := w.place(refs)
	if err != nil {
		return err
	}
	if err = w.grow(ctx); err == nil {
		err = w.bigHTMRun(ctx, body)
	}
	w.shrink(ctx, err == nil)
	return err
}

// place finds every declared record once (a record declared twice is
// written if either declaration says so): a local one through the store's
// index, a remote one through the location cache (§6.3), walking the remote
// index on a miss.
func (w *Worker) place(refs []baseline.Ref) (*bodyCtx, error) {
	ctx := &bodyCtx{w: w, refs: make(map[baseline.Ref]*refState, len(refs))}
	cfg := w.E.M.Config()
	var all []*refState
	for _, r := range refs {
		k := baseline.Ref{Table: r.Table, Key: r.Key}
		if prev := ctx.refs[k]; prev != nil {
			prev.ref.Write = prev.ref.Write || r.Write
			continue
		}
		node := cfg.PrimaryOf(w.E.Part(r.Table, r.Key))
		st := &refState{ref: r, tbl: w.E.M.Store.Table(r.Table), node: node, local: node == w.E.M.ID}
		if st.local {
			off, ok := st.tbl.Lookup(r.Key)
			if !ok {
				return nil, fmt.Errorf("drtm: missing local record %d/%d", r.Table, r.Key)
			}
			st.off = off
		} else {
			loc, err := w.Locate(node, st.tbl, r.Key, false)
			switch {
			case errors.Is(err, txn.ErrNotFound):
				return nil, fmt.Errorf("drtm: missing remote record %d/%d", r.Table, r.Key)
			case err != nil:
				return nil, ErrAborted
			}
			st.off, st.inc = loc.Off, loc.Inc
		}
		ctx.refs[k] = st
		all = append(all, st)
	}
	slices.SortFunc(all, func(a, b *refState) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.off, b.off))
	})
	for _, st := range all {
		if st.local {
			ctx.local = append(ctx.local, st)
		} else {
			ctx.remote = append(ctx.remote, st)
		}
	}
	return ctx, nil
}

// grow is the 2PL growing phase: one lock doorbell over the remote records,
// each whole record READ behind its CAS. A loss, or a record whose
// incarnation is not the one its cached location names (freed, maybe reused,
// since: the location is looked up afresh for the retry), aborts; the
// caller's shrink releases every lock won.
func (w *Worker) grow(ctx *bodyCtx) error {
	targets := make([]txn.LockTarget, len(ctx.remote))
	for i, st := range ctx.remote {
		targets[i] = txn.LockTarget{Node: st.node, Off: st.off, Fetch: st.tbl.RecBytes}
	}
	run := &ctx.run
	w.LockBatch(txn.PhaseLock, txn.PhaseLock, 0, w.E.M.Config(), targets, run)
	if len(run.Missed) > 0 || run.Err != nil {
		return ErrAborted
	}
	for i, st := range ctx.remote {
		read := run.Fetched[i]
		if read.Err != nil {
			return ErrAborted
		}
		if memstore.RecInc(read.Data)&memstore.IncLocMask != st.inc {
			_, _ = w.Locate(st.node, st.tbl, st.ref.Key, true) // a failure is the retry's to report
			return ErrAborted
		}
		st.val = memstore.GatherValue(read.Data, st.tbl.Spec.ValueSize)
	}
	return nil
}

// shrink is the 2PL shrinking phase, and the back-out of a failed attempt:
// one doorbell carries, when commit is set, the WRITE of every image the body
// wrote to a remote record (counted to C.5, as DrTM+R's write-back), then the
// unlock CAS of every lock the attempt holds — a queue pair executes in post
// order, so an image has landed when its lock word clears. The image takes
// its incarnation and sequence number from the header the growing phase READ
// under the lock.
func (w *Worker) shrink(ctx *bodyCtx, commit bool) {
	b := ctx.run.Batch(w.Worker) // the attempt's: Fetched's slots stay valid
	for i, st := range ctx.remote {
		if commit && st.dirty {
			hdr := ctx.run.Fetched[i].Data
			img := memstore.BuildRecordImage(st.tbl.Spec.ValueSize, st.put, memstore.RecInc(hdr), memstore.RecSeq(hdr)+1)
			b.PostWrite(w.QP(st.node), st.off+8, img[8:])
		}
	}
	writes := b.Len()
	w.PostUnlocks(b, ctx.run.Held)
	_ = w.ExecBatch(txn.PhaseUnlock, 0, b) // DrTM has no recovery to hand a dead machine's verbs to
	w.MoveVerbs(txn.PhaseUnlock, txn.PhaseWriteBack, writes)
}

// bigHTMRun executes body inside one HTM transaction covering every local
// record's data lines — the DrTM design point. After bigHTMRetries failed
// regions it locks the local records too and runs the body without HTM; the
// caller's shrink releases those locks with the rest.
func (w *Worker) bigHTMRun(ctx *bodyCtx, body func(baseline.Ctx) error) error {
	for attempt := 0; attempt < bigHTMRetries; attempt++ {
		// The big region touches each record's data lines once; unlike
		// DrTM+R there is no commit-phase re-validation pass and no
		// read/write buffer maintenance (the generality overhead the
		// paper measures at 2.2-9.8%).
		w.Clk.Advance(w.E.Costs.HTMRegion + time.Duration(len(ctx.local))*w.E.Costs.PerValidate)
		ctx.htx = w.E.M.Eng.Begin()
		ctx.clearPuts()
		if err := body(ctx); err != nil {
			_ = ctx.htx.Abort(0xFE) // a no-op unless the body left the region running
			ctx.htx.Release()
			if !errors.Is(err, ErrAborted) {
				return err
			}
		} else {
			err := ctx.htx.Commit()
			ctx.htx.Release()
			if err == nil {
				return nil
			}
		}
		w.Backoff(txn.BackoffCommitRegion, attempt)
	}
	// Fallback: lock the local records by loop-back RDMA CAS, one doorbell
	// per pass over the ones still missing, and run without HTM.
	w.Stats.Fallbacks++
	todo := make([]txn.LockTarget, len(ctx.local))
	for i, st := range ctx.local {
		todo[i] = txn.LockTarget{Node: st.node, Off: st.off}
	}
	for pass := 0; len(todo) > 0; pass++ {
		if pass == fallbackLockPasses {
			return ErrAborted
		}
		if pass > 0 {
			w.Backoff(txn.BackoffFallbackLock, pass)
		}
		w.LockBatch(txn.PhaseFallback, txn.PhaseFallback, 0, w.E.M.Config(), todo, &ctx.run)
		if ctx.run.Err != nil {
			return ErrAborted
		}
		todo = ctx.run.Missed
	}
	ctx.noHTM = true
	ctx.clearPuts()
	return body(ctx)
}

// clearPuts forgets what a failed run of the body wrote to remote records.
func (c *bodyCtx) clearPuts() {
	for _, st := range c.remote {
		st.put, st.dirty = st.put[:0], false
	}
}
