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
package calvin

import (
	"fmt"
	"sync"
	"time"

	"drtmr/internal/baseline"
	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// System is the cluster-wide Calvin deployment (sequencer + per-machine
// lock managers).
type System struct {
	c    *cluster.Cluster
	part txn.Partitioner
	cost txn.CostModel

	seqMu sync.Mutex
	seqNo uint64
	lms   []*lockManager

	// Messaging latency: Calvin runs on IPoIB.
	msgLatency time.Duration
	// schedCost models the sequencer/scheduler CPU per transaction per
	// participant (batching, epoch management, dispatch).
	schedCost time.Duration
	// lmService is the single-threaded lock manager service time per
	// lock operation — Calvin's well-known scalability bottleneck,
	// modelled as a virtual-time resource per machine.
	lmService time.Duration
}

// New builds Calvin over an existing cluster's machines and stores (the
// harness gives Calvin its own cluster instance so the systems do not
// interfere).
func New(c *cluster.Cluster, part txn.Partitioner, cost txn.CostModel) *System {
	s := &System{
		c:          c,
		part:       part,
		cost:       cost,
		msgLatency: 40 * time.Microsecond,
		schedCost:  4 * time.Microsecond,
		lmService:  700 * time.Nanosecond,
	}
	for range c.Machines {
		s.lms = append(s.lms, newLockManager())
	}
	return s
}

// lockManager is a deterministic per-machine lock table: requests enqueue in
// sequence order and are granted FIFO.
type lockManager struct {
	mu    sync.Mutex
	locks map[lockKey]*lockQueue
	// service models the single lock-manager thread in virtual time.
	service sim.Resource
}

type lockKey struct {
	table memstore.TableID
	key   uint64
}

type lockQueue struct {
	holders []uint64 // sequence numbers waiting/holding, FIFO
}

func newLockManager() *lockManager {
	return &lockManager{locks: make(map[lockKey]*lockQueue)}
}

// enqueue registers seq for every local ref, FIFO. The sequencer calls this
// under its global critical section, so arrival order IS sequence order —
// the deterministic property that makes grant-in-queue-order deadlock-free.
func (lm *lockManager) enqueue(seq uint64, refs []lockKey) {
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

// granted reports whether seq holds all its locks (is at each queue head).
func (lm *lockManager) granted(seq uint64, refs []lockKey) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, rk := range refs {
		q := lm.locks[rk]
		if q == nil || len(q.holders) == 0 || q.holders[0] != seq {
			return false
		}
	}
	return true
}

// release drops seq's locks.
func (lm *lockManager) release(seq uint64, refs []lockKey) {
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
		if len(q.holders) == 0 {
			delete(lm.locks, rk)
		}
	}
	lm.mu.Unlock()
}

// Worker is one Calvin worker thread on a machine.
type Worker struct {
	S    *System
	Node rdma.NodeID
	ID   int
	Clk  sim.Clock

	// Stats counts outcomes: Committed only, Calvin never aborts.
	Stats txn.Stats
}

// NewWorker creates a worker on node.
func (s *System) NewWorker(node rdma.NodeID, id int) *Worker {
	return &Worker{S: s, Node: node, ID: id}
}

// bodyCtx is the baseline.Ctx of an executing transaction (all locks held).
type bodyCtx struct {
	values map[baseline.Ref][]byte
}

// Get returns a declared record's value.
func (c *bodyCtx) Get(table memstore.TableID, key uint64) ([]byte, error) {
	for r, v := range c.values {
		if r.Table == table && r.Key == key {
			return v, nil
		}
	}
	return nil, fmt.Errorf("calvin: undeclared access %d/%d", table, key)
}

// Put replaces a declared record's value (applied locally at the owning
// partition after the body runs).
func (c *bodyCtx) Put(table memstore.TableID, key uint64, value []byte) error {
	for r := range c.values {
		if r.Table == table && r.Key == key {
			if !r.Write {
				return fmt.Errorf("calvin: undeclared write %d/%d", table, key)
			}
			c.values[r] = append([]byte(nil), value...)
			return nil
		}
	}
	return fmt.Errorf("calvin: undeclared write %d/%d", table, key)
}

// Run executes one deterministic transaction with declared refs.
func (w *Worker) Run(refs []baseline.Ref, body func(baseline.Ctx) error) error {
	s := w.S
	cfg := s.c.Coord.Current()

	// Participants and per-machine lock keys.
	perNode := make(map[rdma.NodeID][]lockKey)
	nodeOf := make(map[lockKey]rdma.NodeID)
	for _, r := range refs {
		rk := lockKey{r.Table, r.Key}
		if _, dup := nodeOf[rk]; dup {
			continue
		}
		node := cfg.PrimaryOf(s.part(r.Table, r.Key))
		nodeOf[rk] = node
		perNode[node] = append(perNode[node], rk)
	}
	// Sequencer dissemination: one message per remote participant plus
	// scheduler CPU per participant.
	for node := range perNode {
		w.Clk.Advance(s.schedCost)
		if node != w.Node {
			w.Clk.Advance(s.msgLatency)
		}
	}
	// Global sequencing point: the sequence number is assigned and the
	// transaction enqueued at EVERY participant's lock manager atomically,
	// so queues are in global sequence order (Calvin's determinism). The
	// lock-manager service time is charged against each machine's single
	// lock-manager thread in virtual time.
	s.seqMu.Lock()
	s.seqNo++
	seq := s.seqNo
	for node, keys := range perNode {
		lm := s.lms[node]
		end := lm.service.Use(w.Clk.Now(), time.Duration(len(keys))*s.lmService)
		w.Clk.AdvanceTo(end)
		lm.enqueue(seq, keys)
	}
	s.seqMu.Unlock()
	// Wait for grants everywhere (deterministic order ⇒ no deadlock).
	for node, keys := range perNode {
		for !s.lms[node].granted(seq, keys) {
			w.Clk.Advance(500 * time.Nanosecond)
			sim.Spin(0)
		}
	}
	// Collect values: local reads directly; remote reads via an IPoIB
	// round trip per participant (Calvin pushes reads to peers).
	ctx := &bodyCtx{values: make(map[baseline.Ref][]byte)}
	for _, r := range refs {
		rk := lockKey{r.Table, r.Key}
		node := nodeOf[rk]
		tbl := s.c.Machines[node].Store.Table(r.Table)
		off, ok := tbl.Lookup(r.Key)
		if !ok {
			s.releaseAll(seq, perNode)
			return fmt.Errorf("calvin: missing record %d/%d", r.Table, r.Key)
		}
		if node == w.Node {
			w.Clk.Advance(s.cost.LocalAccess)
		} else {
			w.Clk.Advance(s.msgLatency) // read result shipped over IPoIB
		}
		img := s.c.Machines[node].Eng.ReadNonTx(off, tbl.RecBytes, nil)
		ctx.values[r] = memstore.GatherValue(img, tbl.Spec.ValueSize)
	}
	// Execute.
	if err := body(ctx); err != nil {
		s.releaseAll(seq, perNode)
		return err
	}
	// Apply writes at their partitions (remote writes ride messages).
	for _, r := range refs {
		if !r.Write {
			continue
		}
		rk := lockKey{r.Table, r.Key}
		node := nodeOf[rk]
		tbl := s.c.Machines[node].Store.Table(r.Table)
		off, ok := tbl.Lookup(r.Key)
		if !ok {
			continue
		}
		if node != w.Node {
			w.Clk.Advance(s.msgLatency)
		} else {
			w.Clk.Advance(s.cost.LocalAccess)
		}
		eng := s.c.Machines[node].Eng
		inc := eng.Load64NonTx(off + memstore.IncOff)
		cur := eng.Load64NonTx(off + memstore.SeqOff)
		img := memstore.BuildRecordImage(tbl.Spec.ValueSize, ctx.values[r], inc, cur+1)
		eng.WriteNonTx(off+8, img[8:])
	}
	s.releaseAll(seq, perNode)
	w.Stats.Committed++
	return nil
}

func (s *System) releaseAll(seq uint64, perNode map[rdma.NodeID][]lockKey) {
	for node, keys := range perNode {
		s.lms[node].release(seq, keys)
	}
}

// Insert adds a record deterministically (loader-style; Calvin handles
// inserts through its scheduler, modelled here as a locked single-record
// transaction).
func (w *Worker) Insert(table memstore.TableID, key uint64, value []byte) error {
	s := w.S
	cfg := s.c.Coord.Current()
	node := cfg.PrimaryOf(s.part(table, key))
	if node != w.Node {
		w.Clk.Advance(s.msgLatency)
	}
	w.Clk.Advance(s.schedCost + s.cost.LocalAccess)
	_, err := s.c.Machines[node].Store.Table(table).Insert(key, value)
	return err
}
