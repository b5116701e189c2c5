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
// It runs on DrTM+R's primitives (rdma.Batch doorbells, cluster.LookupRemote
// and LocCache, baseline.Backoff), so a figure compares the protocols.
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
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// Engine is the per-machine DrTM instance.
type Engine struct {
	M    *cluster.Machine
	Part txn.Partitioner
	Cost txn.CostModel
	// Sequential prices each doorbell per verb (rdma.Batch.SetSequential), as
	// txn.Knobs.DisableVerbBatching does for DrTM+R. Set it before NewWorker.
	Sequential bool

	locs cluster.LocCache
}

// NewEngine builds DrTM on machine m.
func NewEngine(m *cluster.Machine, part txn.Partitioner, cost txn.CostModel) *Engine {
	return &Engine{M: m, Part: part, Cost: cost}
}

// Worker is one DrTM worker thread.
type Worker struct {
	E   *Engine
	ID  int
	Clk sim.Clock
	rng *sim.Rand
	qps []*rdma.QP
	b   *rdma.Batch // the doorbell of every lock, fetch, write-back and unlock

	// Stats counts outcomes: Committed, Retries (aborted attempts) and
	// Fallbacks.
	Stats txn.Counters
}

// NewWorker creates worker id.
func (e *Engine) NewWorker(id int) *Worker {
	w := &Worker{E: e, ID: id, rng: sim.NewRand(uint64(id)*977 + uint64(e.M.ID) + 5)}
	n := e.M.Cluster().Spec.Nodes
	w.qps = make([]*rdma.QP, n)
	for i := 0; i < n; i++ {
		w.qps[i] = e.M.Cluster().Net.NewQP(e.M.ID, rdma.NodeID(i), &w.Clk)
	}
	w.b = rdma.NewBatch(&w.Clk)
	w.b.SetSequential(e.Sequential)
	return w
}

// bodyCtx is the baseline.Ctx handed to the transaction body: all remote
// records are pre-fetched (and locked); local records go through the big
// HTM region.
type bodyCtx struct {
	w     *Worker
	htx   *htm.Txn
	noHTM bool                       // fallback mode: plain accesses under locks
	refs  map[baseline.Ref]*refState // keyed by table and key, Write false
	// all declared records in (node, off) order, the global lock order, and
	// the remote and the local ones in the same order.
	all, remote, local []*refState
}

// refState is one declared record in one attempt.
type refState struct {
	ref    baseline.Ref
	local  bool
	node   rdma.NodeID
	off    uint64
	inc    uint64 // remote: the incarnation its cached location names
	locked bool
	// img is a remote record as the growing phase READ it under its lock,
	// val its value, put what the body wrote (dirty says it did).
	img, val, put []byte
	dirty         bool
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
	tbl := c.w.E.M.Store.Table(table)
	// Single-pass execution inside one region: no separate per-read HTM
	// begin/commit and no read-set buffer maintenance.
	c.w.Clk.Advance(c.w.E.Cost.LocalAccess * 3 / 4)
	if c.noHTM {
		img := c.w.E.M.Eng.ReadNonTx(st.off, tbl.RecBytes, nil)
		return memstore.GatherValue(img, tbl.Spec.ValueSize), nil
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
	img, err := c.htx.Read(st.off, tbl.RecBytes, nil)
	if err != nil {
		return nil, ErrAborted
	}
	return memstore.GatherValue(img, tbl.Spec.ValueSize), nil
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
	tbl := c.w.E.M.Store.Table(table)
	c.w.Clk.Advance(c.w.E.Cost.LocalAccess)
	inc := c.w.E.M.Eng.Load64NonTx(st.off + memstore.IncOff)
	if c.noHTM {
		seq := c.w.E.M.Eng.Load64NonTx(st.off + memstore.SeqOff)
		full := memstore.BuildRecordImage(tbl.Spec.ValueSize, value, inc, seq+1)
		c.w.E.M.Eng.WriteNonTx(st.off+8, full[8:])
		return nil
	}
	seq, err := c.htx.Load64(st.off + memstore.SeqOff)
	if err != nil {
		return ErrAborted
	}
	full := memstore.BuildRecordImage(tbl.Spec.ValueSize, value, inc, seq+1)
	if err := c.htx.Write(st.off+8, full[8:]); err != nil {
		return ErrAborted
	}
	return nil
}

// Run executes a transaction with declared refs: lock and fetch the remote
// records (2PL growing phase), run the body in one big HTM region, write
// back and unlock (shrinking phase).
func (w *Worker) Run(refs []baseline.Ref, body func(baseline.Ctx) error) error {
	for attempt := 0; ; attempt++ {
		err := w.attempt(refs, body)
		if err == nil {
			w.Stats.Committed++
			return nil
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		w.Stats.Retries++
		baseline.Backoff(&w.Clk, w.rng, attempt, w.E.Cost.Backoff)
	}
}

const (
	bigHTMRetries = 8
	// fallbackLockPasses bounds the fallback's loop-back lock doorbells.
	fallbackLockPasses = 64
)

func (w *Worker) attempt(refs []baseline.Ref, body func(baseline.Ctx) error) error {
	w.Clk.Advance(w.E.Cost.TxnOverhead)
	ctx, err := w.place(refs)
	if err != nil {
		return err
	}
	if err := w.grow(ctx.remote); err != nil {
		return err
	}
	err = w.bigHTMRun(ctx, body)
	w.shrink(ctx.all, err == nil)
	return err
}

// place finds every declared record once (a record declared twice is
// written if either declaration says so): a local one through the store's
// index, a remote one through the location cache (§6.3), walking the remote
// index on a miss.
func (w *Worker) place(refs []baseline.Ref) (*bodyCtx, error) {
	ctx := &bodyCtx{w: w, refs: make(map[baseline.Ref]*refState, len(refs))}
	cfg := w.E.M.Config()
	for _, r := range refs {
		k := baseline.Ref{Table: r.Table, Key: r.Key}
		if prev := ctx.refs[k]; prev != nil {
			prev.ref.Write = prev.ref.Write || r.Write
			continue
		}
		node := cfg.PrimaryOf(w.E.Part(r.Table, r.Key))
		st := &refState{ref: r, node: node, local: node == w.E.M.ID}
		tbl := w.E.M.Store.Table(r.Table)
		if st.local {
			off, ok := tbl.Lookup(r.Key)
			if !ok {
				return nil, fmt.Errorf("drtm: missing local record %d/%d", r.Table, r.Key)
			}
			st.off = off
		} else {
			lk := cluster.LocKey{Node: node, Table: r.Table, Key: r.Key}
			loc, ok := w.E.locs.Get(lk)
			if !ok {
				var err error
				if loc, ok, err = cluster.LookupRemote(w.qps[node], tbl, r.Key, (*rdma.Completion).Wait); err != nil {
					return nil, ErrAborted
				} else if !ok {
					return nil, fmt.Errorf("drtm: missing remote record %d/%d", r.Table, r.Key)
				}
				w.E.locs.Put(lk, loc)
			}
			st.off, st.inc = loc.Off, loc.Inc
		}
		ctx.refs[k] = st
		ctx.all = append(ctx.all, st)
	}
	slices.SortFunc(ctx.all, func(a, b *refState) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.off, b.off))
	})
	for _, st := range ctx.all {
		if st.local {
			ctx.local = append(ctx.local, st)
		} else {
			ctx.remote = append(ctx.remote, st)
		}
	}
	return ctx, nil
}

// lock try-locks every target with one doorbell of RDMA CASes and returns
// the ones it lost. Behind the CAS to a remote record rides the READ of the
// record on the same queue pair, which runs it after the CAS: behind a CAS
// that swapped, it sees the record as it stays until this attempt unlocks.
// Every CAS has run before the first result is read, so ones posted after a
// lost CAS may have swapped: the scan marks EVERY won lock before the caller
// acts on a loss (txn's lockBatch discipline), or the back-out leaks them.
func (w *Worker) lock(targets []*refState) (missed []*refState) {
	myWord := memstore.LockWord(uint32(w.E.M.ID))
	pend := make([]struct{ cas, read *rdma.Pending }, len(targets))
	for i, st := range targets {
		pend[i].cas = w.b.PostCAS(w.qps[st.node], st.off+memstore.LockOff, 0, myWord)
		if !st.local {
			pend[i].read = w.b.PostRead(w.qps[st.node], st.off, w.E.M.Store.Table(st.ref.Table).RecBytes)
		}
	}
	_ = w.b.Execute() // each verb's error is in its Pending slot
	for i, st := range targets {
		cas, read := pend[i].cas, pend[i].read
		st.locked = cas.Err == nil && cas.Swapped
		switch {
		case !st.locked || read != nil && read.Err != nil:
			missed = append(missed, st)
		case read != nil:
			st.img = read.Data
		}
	}
	return missed
}

// grow is the 2PL growing phase: one lock doorbell over the remote records.
// A loss, or a record whose incarnation is not the one its cached location
// names (freed, maybe reused, since: the entry is dropped so that the retry
// looks it up afresh), releases every lock won and aborts.
func (w *Worker) grow(remote []*refState) error {
	if len(w.lock(remote)) > 0 {
		w.shrink(remote, false)
		return ErrAborted
	}
	for _, st := range remote {
		if memstore.RecInc(st.img)&memstore.IncLocMask != st.inc {
			w.E.locs.Drop(cluster.LocKey{Node: st.node, Table: st.ref.Table, Key: st.ref.Key})
			w.shrink(remote, false)
			return ErrAborted
		}
		st.val = memstore.GatherValue(st.img, w.E.M.Store.Table(st.ref.Table).Spec.ValueSize)
	}
	return nil
}

// shrink is the 2PL shrinking phase, and the back-out of a failed attempt:
// one doorbell carries, for every record locked, the WRITE of the body's
// image when commit is set and the body wrote one, then the unlock CAS
// behind it on the same queue pair. The image takes its incarnation and
// sequence number from the header the growing phase READ under the lock.
func (w *Worker) shrink(states []*refState, commit bool) {
	myWord := memstore.LockWord(uint32(w.E.M.ID))
	for _, st := range states {
		if !st.locked {
			continue
		}
		if commit && st.dirty {
			tbl := w.E.M.Store.Table(st.ref.Table)
			img := memstore.BuildRecordImage(tbl.Spec.ValueSize, st.put, memstore.RecInc(st.img), memstore.RecSeq(st.img)+1)
			w.b.PostWrite(w.qps[st.node], st.off+8, img[8:])
		}
		w.b.PostCAS(w.qps[st.node], st.off+memstore.LockOff, myWord, 0)
		st.locked = false
	}
	_ = w.b.Execute() // DrTM has no recovery to hand a dead machine's verbs to
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
		w.Clk.Advance(w.E.Cost.HTMRegion + time.Duration(len(ctx.local))*w.E.Cost.PerValidate)
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
		baseline.Backoff(&w.Clk, w.rng, attempt, w.E.Cost.Backoff)
	}
	// Fallback: lock the local records by loop-back RDMA CAS, one doorbell
	// per pass over the ones still missing, and run without HTM.
	w.Stats.Fallbacks++
	todo := ctx.local
	for pass := 0; len(todo) > 0; pass++ {
		if pass == fallbackLockPasses {
			return ErrAborted
		}
		if pass > 0 {
			baseline.Backoff(&w.Clk, w.rng, pass, w.E.Cost.Backoff)
		}
		todo = w.lock(todo)
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
