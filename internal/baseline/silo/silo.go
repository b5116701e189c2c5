// Package silo implements the Silo baseline (Tu et al., SOSP'13): a fast
// single-machine, multicore in-memory database using OCC with decentralized
// epoch-based transaction IDs and per-record version locks — no HTM, no
// RDMA, no scale-out. The paper runs Silo with logging disabled on one
// machine of the cluster as the per-machine-efficiency yardstick (§7.2).
//
// Faithful to Silo's commit protocol: execution buffers writes and records
// (record, TID) pairs; commit locks the write set in global order, picks a
// TID in the current epoch greater than every TID it read or overwrites and
// than the worker's last, validates that read-set records are unchanged and
// not locked by others, installs, and unlocks. The record metadata word
// packs [lock bit | epoch | counter].
package silo

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drtmr/internal/baseline"
	"drtmr/internal/memstore"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// TID word layout: bit 63 = lock, bits 33..62 = epoch, bits 0..32 = counter.
const (
	lockBit   = uint64(1) << 63
	epochBase = 33
)

func makeTID(epoch, counter uint64) uint64 {
	return epoch<<epochBase | counter
}

// record is one row: a TID word plus the value. Real Silo reads values with
// a seqlock (word, copy, word re-check); a Go data-race-free equivalent
// needs the small value mutex below — the TID word is still what drives
// concurrency control and validation.
type record struct {
	word  atomic.Uint64
	valMu sync.Mutex
	val   []byte
}

// Table is an unordered key-value table.
type Table struct {
	mu   sync.RWMutex
	rows map[uint64]*record
}

// DB is a single-machine Silo database.
type DB struct {
	tables map[memstore.TableID]*Table
	epoch  atomic.Uint64

	Cost txn.CostModel
}

// epochPeriod is the virtual time one epoch spans: Silo's epoch thread
// advances the global epoch every 40 ms. The period only bounds freshness,
// not throughput.
const epochPeriod = 40 * time.Millisecond

// NewDB creates a database with the given table ids.
func NewDB(tableIDs []memstore.TableID, cost txn.CostModel) *DB {
	db := &DB{tables: make(map[memstore.TableID]*Table), Cost: cost}
	db.epoch.Store(1)
	for _, id := range tableIDs {
		db.tables[id] = &Table{rows: make(map[uint64]*record)}
	}
	return db
}

// epochAt returns the global epoch once it has reached the one the virtual
// instant now falls in: the workers' clocks advance it, where Silo has a
// thread watching real time. It never moves backwards.
func (db *DB) epochAt(now int64) uint64 {
	want := 1 + uint64(now/int64(epochPeriod))
	for {
		e := db.epoch.Load()
		if e >= want || db.epoch.CompareAndSwap(e, want) {
			return max(e, want)
		}
	}
}

// Insert loads a row (setup path).
func (db *DB) Insert(table memstore.TableID, key uint64, val []byte) error {
	t := db.tables[table]
	if t == nil {
		return fmt.Errorf("silo: unknown table %d", table)
	}
	r := &record{val: append([]byte(nil), val...)}
	r.word.Store(makeTID(1, 0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.rows[key]; dup {
		return errors.New("silo: duplicate key")
	}
	t.rows[key] = r
	return nil
}

func (db *DB) row(table memstore.TableID, key uint64) *record {
	t := db.tables[table]
	if t == nil {
		return nil
	}
	t.mu.RLock()
	r := t.rows[key]
	t.mu.RUnlock()
	return r
}

// insertRow adds a row transactionally (used by Txn.Insert at commit).
func (db *DB) insertRow(table memstore.TableID, key uint64, val []byte, tid uint64) *record {
	t := db.tables[table]
	r := &record{val: append([]byte(nil), val...)}
	r.word.Store(tid)
	t.mu.Lock()
	if existing, dup := t.rows[key]; dup {
		t.mu.Unlock()
		return existing
	}
	t.rows[key] = r
	t.mu.Unlock()
	return r
}

// Worker is one Silo worker thread.
type Worker struct {
	DB  *DB
	ID  int
	Clk sim.Clock
	rng *sim.Rand
	// lastTID is the TID this worker last committed under.
	lastTID uint64

	// Stats counts outcomes: Committed and Retries (aborted attempts).
	Stats txn.Counters
}

// NewWorker creates worker id.
func (db *DB) NewWorker(id int) *Worker {
	return &Worker{DB: db, ID: id, rng: sim.NewRand(uint64(id) + 101)}
}

// ErrNotFound mirrors the txn package's error.
var ErrNotFound = errors.New("silo: key not found")

var errAbort = errors.New("silo: abort")

// Txn is one Silo transaction.
type Txn struct {
	w  *Worker
	rs []rsEnt
	ws []wsEnt
}

type rsEnt struct {
	rec *record
	tid uint64
}

type wsEnt struct {
	table  memstore.TableID
	key    uint64
	rec    *record // nil for inserts
	val    []byte
	insert bool
}

// Run executes fn with automatic retry.
func (w *Worker) Run(fn func(tx *Txn) error) error {
	for attempt := 0; ; attempt++ {
		tx := &Txn{w: w}
		w.Clk.Advance(w.DB.Cost.TxnOverhead)
		err := fn(tx)
		if err == nil {
			err = tx.commit()
		}
		if err == nil {
			w.Stats.Committed++
			return nil
		}
		if !errors.Is(err, errAbort) {
			return err
		}
		w.Stats.Retries++
		baseline.Backoff(&w.Clk, w.rng, attempt, w.DB.Cost.Backoff)
	}
}

// Get returns a stable snapshot of the record (Silo's optimistic read: word,
// value, word re-check). With Put it makes a Txn a baseline.Ctx, so a body
// written for the declared-set systems runs on Silo unchanged.
func (tx *Txn) Get(table memstore.TableID, key uint64) ([]byte, error) {
	for i := range tx.ws {
		if tx.ws[i].table == table && tx.ws[i].key == key {
			return append([]byte(nil), tx.ws[i].val...), nil
		}
	}
	r := tx.w.DB.row(table, key)
	if r == nil {
		return nil, ErrNotFound
	}
	tx.w.Clk.Advance(tx.w.DB.Cost.LocalAccess)
	for spin := 0; ; spin++ {
		w1 := r.word.Load()
		if w1&lockBit != 0 {
			sim.Spin(0)
			continue
		}
		r.valMu.Lock()
		val := append([]byte(nil), r.val...)
		r.valMu.Unlock()
		if r.word.Load() == w1 {
			tx.rs = append(tx.rs, rsEnt{rec: r, tid: w1})
			return val, nil
		}
	}
}

// Put buffers an update.
func (tx *Txn) Put(table memstore.TableID, key uint64, val []byte) error {
	for i := range tx.ws {
		if tx.ws[i].table == table && tx.ws[i].key == key {
			tx.ws[i].val = append(tx.ws[i].val[:0], val...)
			return nil
		}
	}
	r := tx.w.DB.row(table, key)
	if r == nil {
		return ErrNotFound
	}
	tx.ws = append(tx.ws, wsEnt{table: table, key: key, rec: r, val: append([]byte(nil), val...)})
	return nil
}

// Insert buffers a new row.
func (tx *Txn) Insert(table memstore.TableID, key uint64, val []byte) error {
	tx.ws = append(tx.ws, wsEnt{table: table, key: key, insert: true, val: append([]byte(nil), val...)})
	return nil
}

// commit is Silo's three-phase commit.
func (tx *Txn) commit() error {
	w := tx.w
	w.Clk.Advance(w.DB.Cost.HTMRegion + time.Duration(len(tx.rs)+len(tx.ws))*w.DB.Cost.PerValidate)
	// Phase 1: lock the write set in the global (table, key) order.
	slices.SortStableFunc(tx.ws, func(a, b wsEnt) int {
		return cmp.Or(cmp.Compare(a.table, b.table), cmp.Compare(a.key, b.key))
	})
	locks := make([]*record, 0, len(tx.ws))
	for i := range tx.ws {
		if tx.ws[i].rec != nil {
			locks = append(locks, tx.ws[i].rec)
		}
	}
	for i, r := range locks {
		ok := false
		for spin := 0; spin < 64; spin++ {
			cur := r.word.Load()
			if cur&lockBit == 0 && r.word.CompareAndSwap(cur, cur|lockBit) {
				ok = true
				break
			}
			sim.Spin(0)
		}
		if !ok {
			unlock(locks[:i])
			return errAbort
		}
	}
	// Phase 2: compute TID and validate reads. The TID is larger than every
	// TID read or about to be overwritten and than the worker's last, in the
	// current epoch (which is never older than an epoch it has seen).
	tid := makeTID(w.DB.epochAt(w.Clk.Now()), 0)
	for _, e := range tx.rs {
		tid = max(tid, e.tid&^lockBit)
	}
	for _, r := range locks {
		tid = max(tid, r.word.Load()&^lockBit)
	}
	tid = max(tid, w.lastTID) + 1
	for _, e := range tx.rs {
		cur := e.rec.word.Load()
		if cur&^lockBit != e.tid&^lockBit || cur&lockBit != 0 && !slices.Contains(locks, e.rec) {
			unlock(locks)
			return errAbort
		}
	}
	w.lastTID = tid
	// Phase 3: install writes and unlock with the new TID.
	for i := range tx.ws {
		e := &tx.ws[i]
		if e.insert {
			e.rec = w.DB.insertRow(e.table, e.key, e.val, tid)
			continue
		}
		e.rec.valMu.Lock()
		e.rec.val = append(e.rec.val[:0], e.val...)
		e.rec.valMu.Unlock()
	}
	for _, r := range locks {
		r.word.Store(tid)
	}
	return nil
}

// unlock clears the lock bit of every record in locks, keeping its TID.
func unlock(locks []*record) {
	for _, r := range locks {
		r.word.Store(r.word.Load() &^ lockBit)
	}
}
