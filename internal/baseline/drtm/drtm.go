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
package drtm

import (
	"errors"
	"fmt"
	"sort"
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
	return w
}

// bodyCtx is the baseline.Ctx handed to the transaction body: all remote
// records are pre-fetched (and locked); local records go through the big
// HTM region.
type bodyCtx struct {
	w      *Worker
	htx    *htm.Txn
	noHTM  bool // fallback mode: plain accesses under locks
	remote map[baseline.Ref][]byte
	dirty  map[baseline.Ref][]byte
	refs   map[refKey]*refState
}

type refKey struct {
	table memstore.TableID
	key   uint64
}

type refState struct {
	ref    baseline.Ref
	local  bool
	node   rdma.NodeID
	off    uint64
	locked bool
}

// ErrAborted is returned when the transaction cannot make progress and the
// caller should retry.
var ErrAborted = errors.New("drtm: aborted")

// Get reads a declared record.
func (c *bodyCtx) Get(table memstore.TableID, key uint64) ([]byte, error) {
	rk := refKey{table, key}
	st := c.refs[rk]
	if st == nil {
		return nil, fmt.Errorf("drtm: undeclared access %d/%d", table, key)
	}
	if v, ok := c.dirty[st.ref]; ok {
		return v, nil
	}
	if !st.local {
		v := c.remote[st.ref]
		if v == nil {
			return nil, ErrAborted
		}
		return v, nil
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
	rk := refKey{table, key}
	st := c.refs[rk]
	if st == nil || !st.ref.Write {
		return fmt.Errorf("drtm: undeclared write %d/%d", table, key)
	}
	if !st.local {
		c.dirty[st.ref] = append([]byte(nil), value...)
		return nil
	}
	tbl := c.w.E.M.Store.Table(table)
	c.w.Clk.Advance(c.w.E.Cost.LocalAccess)
	inc := c.w.E.M.Eng.Load64NonTx(st.off + memstore.IncOff)
	if c.noHTM {
		var seq uint64
		img := c.w.E.M.Eng.ReadNonTx(st.off, 24, nil)
		seq = memstore.RecSeq(img) + 1
		full := memstore.BuildRecordImage(tbl.Spec.ValueSize, value, inc, seq)
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

// Run executes a transaction with declared refs: lock remote (2PL growing
// phase), fetch remote reads, run body in one big HTM region, write back and
// unlock (shrinking phase).
func (w *Worker) Run(refs []baseline.Ref, body func(baseline.Ctx) error) error {
	for attempt := 0; ; attempt++ {
		err := w.attempt(refs, body, attempt)
		if err == nil {
			w.Stats.Committed++
			return nil
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		w.Stats.Retries++
		w.backoff(attempt)
	}
}

func (w *Worker) backoff(attempt int) {
	maxExp := 1 << uint(min(attempt, 8))
	w.Clk.Advance(time.Duration(1+w.rng.Intn(maxExp)) * w.E.Cost.Backoff)
	sim.Spin(0)
}

const bigHTMRetries = 8

func (w *Worker) attempt(refs []baseline.Ref, body func(baseline.Ctx) error, attempt int) error {
	w.Clk.Advance(w.E.Cost.TxnOverhead)
	ctx := &bodyCtx{
		w:      w,
		remote: make(map[baseline.Ref][]byte),
		dirty:  make(map[baseline.Ref][]byte),
		refs:   make(map[refKey]*refState, len(refs)),
	}
	cfg := w.E.M.Config()
	// Resolve placements and offsets.
	var states []*refState
	for _, r := range refs {
		rk := refKey{r.Table, r.Key}
		if prev := ctx.refs[rk]; prev != nil {
			prev.ref.Write = prev.ref.Write || r.Write
			continue
		}
		shard := w.E.Part(r.Table, r.Key)
		node := cfg.PrimaryOf(shard)
		st := &refState{ref: r, node: node, local: node == w.E.M.ID}
		if st.local {
			off, ok := w.E.M.Store.Table(r.Table).Lookup(r.Key)
			if !ok {
				return fmt.Errorf("drtm: missing local record %d/%d", r.Table, r.Key)
			}
			st.off = off
		} else {
			loc, err := w.remoteLookup(st.node, r.Table, r.Key)
			if err != nil {
				return err
			}
			st.off = loc
		}
		ctx.refs[rk] = st
		states = append(states, st)
	}
	// 2PL growing phase: lock remote records in sorted order.
	sort.Slice(states, func(i, j int) bool {
		if states[i].node != states[j].node {
			return states[i].node < states[j].node
		}
		return states[i].off < states[j].off
	})
	myWord := memstore.LockWord(uint32(w.E.M.ID))
	release := func() {
		for _, st := range states {
			if st.locked {
				_, _, _ = w.qps[st.node].CAS(st.off+memstore.LockOff, myWord, 0)
				st.locked = false
			}
		}
	}
	for _, st := range states {
		if st.local {
			continue
		}
		_, ok, err := w.qps[st.node].CAS(st.off+memstore.LockOff, 0, myWord)
		if err != nil || !ok {
			release()
			return ErrAborted
		}
		st.locked = true
	}
	// Fetch remote records.
	for _, st := range states {
		if st.local {
			continue
		}
		tbl := w.E.M.Store.Table(st.ref.Table)
		img, err := w.qps[st.node].Read(st.off, tbl.RecBytes, nil)
		if err != nil {
			release()
			return ErrAborted
		}
		ctx.remote[st.ref] = memstore.GatherValue(img, tbl.Spec.ValueSize)
	}
	// Execute the body in one big HTM region (bounded retries, then the
	// locking fallback: lock local records too via loop-back CAS).
	commitErr := w.bigHTMRun(ctx, states, body, myWord)
	if commitErr != nil {
		release()
		return commitErr
	}
	// Write back remote updates, then unlock (2PL shrinking phase).
	for _, st := range states {
		if st.local || !st.ref.Write {
			continue
		}
		v := ctx.dirty[st.ref]
		if v == nil {
			continue
		}
		tbl := w.E.M.Store.Table(st.ref.Table)
		var hdr [24]byte
		h, err := w.qps[st.node].Read(st.off, 24, hdr[:])
		if err == nil {
			img := memstore.BuildRecordImage(tbl.Spec.ValueSize, v, memstore.RecInc(h), memstore.RecSeq(h)+1)
			_ = w.qps[st.node].Write(st.off+8, img[8:])
		}
	}
	release()
	return nil
}

// bigHTMRun executes body inside one HTM transaction covering every local
// record's data lines — the DrTM design point.
func (w *Worker) bigHTMRun(ctx *bodyCtx, states []*refState, body func(baseline.Ctx) error, myWord uint64) error {
	nLocal := 0
	for _, st := range states {
		if st.local {
			nLocal++
		}
	}
	for attempt := 0; attempt < bigHTMRetries; attempt++ {
		// The big region touches each record's data lines once; unlike
		// DrTM+R there is no commit-phase re-validation pass and no
		// read/write buffer maintenance (the generality overhead the
		// paper measures at 2.2-9.8%).
		w.Clk.Advance(w.E.Cost.HTMRegion + time.Duration(nLocal)*w.E.Cost.PerValidate)
		ctx.htx = w.E.M.Eng.Begin()
		ctx.noHTM = false
		for k := range ctx.dirty {
			delete(ctx.dirty, k)
		}
		if err := body(ctx); err != nil {
			if errors.Is(err, ErrAborted) {
				w.backoff(attempt)
				continue
			}
			ctx.htx.Abort(0xFE)
			return err
		}
		if err := ctx.htx.Commit(); err == nil {
			return nil
		}
		w.backoff(attempt)
	}
	// Fallback: lock LOCAL records via loop-back RDMA CAS, run without HTM.
	w.Stats.Fallbacks++
	var localLocked []*refState
	for _, st := range states {
		if !st.local {
			continue
		}
		ok := false
		for a := 0; a < 64; a++ {
			if _, swapped, err := w.qps[w.E.M.ID].CAS(st.off+memstore.LockOff, 0, myWord); err == nil && swapped {
				ok = true
				break
			}
			w.backoff(a)
		}
		if !ok {
			for _, l := range localLocked {
				_, _, _ = w.qps[w.E.M.ID].CAS(l.off+memstore.LockOff, myWord, 0)
			}
			return ErrAborted
		}
		localLocked = append(localLocked, st)
	}
	ctx.noHTM = true
	for k := range ctx.dirty {
		delete(ctx.dirty, k)
	}
	err := body(ctx)
	for _, l := range localLocked {
		_, _, _ = w.qps[w.E.M.ID].CAS(l.off+memstore.LockOff, myWord, 0)
	}
	if err != nil && !errors.Is(err, ErrAborted) {
		return err
	}
	if err != nil {
		return ErrAborted
	}
	return nil
}

func (w *Worker) remoteLookup(node rdma.NodeID, table memstore.TableID, key uint64) (uint64, error) {
	tbl := w.E.M.Store.Table(table)
	h := tbl.Hash()
	bucketOff := memstore.BucketOffFor(h.Base(), h.NumBuckets(), key)
	var img [64]byte
	for bucketOff != 0 {
		b, err := w.qps[node].Read(bucketOff, 64, img[:])
		if err != nil {
			return 0, ErrAborted
		}
		packed, next, found := memstore.ParseBucket(b, key)
		if found {
			off, _ := memstore.SplitLoc(packed)
			return off, nil
		}
		bucketOff = next
	}
	return 0, fmt.Errorf("drtm: missing remote record %d/%d", table, key)
}
