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
//
// Its worker is DrTM+R's (txn.Worker) on a bare one-machine cluster, whose
// store Silo leaves empty: the clock, cost model, counters, backoff with its
// sites, the retry loop and the deterministic gate are the ones every other
// system runs on, and the TID words and tables are Silo's own.
package silo

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drtmr/internal/memstore"
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

// DB is a single-machine Silo database: each table an unordered map from key
// to *record.
type DB struct {
	tables map[memstore.TableID]*sync.Map
	epoch  atomic.Uint64
}

// epochPeriod is the virtual time one epoch spans: Silo's epoch thread
// advances the global epoch every 40 ms. The period only bounds freshness,
// not throughput.
const epochPeriod = 40 * time.Millisecond

// NewDB creates a database with the given table ids.
func NewDB(tableIDs []memstore.TableID) *DB {
	db := &DB{tables: make(map[memstore.TableID]*sync.Map)}
	db.epoch.Store(1)
	for _, id := range tableIDs {
		db.tables[id] = new(sync.Map)
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
	if db.tables[table] == nil {
		return fmt.Errorf("silo: unknown table %d", table)
	}
	if _, fresh := db.insertRow(table, key, val, makeTID(1, 0)); !fresh {
		return errors.New("silo: duplicate key")
	}
	return nil
}

func (db *DB) row(table memstore.TableID, key uint64) *record {
	if t := db.tables[table]; t != nil {
		if r, ok := t.Load(key); ok {
			return r.(*record)
		}
	}
	return nil
}

// insertRow adds a row under TID tid unless the key has one, and returns the
// key's row and whether it is the new one.
func (db *DB) insertRow(table memstore.TableID, key uint64, val []byte, tid uint64) (*record, bool) {
	r := &record{val: append([]byte(nil), val...)}
	r.word.Store(tid)
	got, dup := db.tables[table].LoadOrStore(key, r)
	return got.(*record), !dup
}

// Worker is one Silo worker thread.
type Worker struct {
	*txn.Worker
	DB *DB
	// lastTID is the TID this worker last committed under.
	lastTID uint64
}

// NewWorker creates worker id on e, whose machine holds none of Silo's rows.
func (db *DB) NewWorker(e *txn.Engine, id int) *Worker {
	return &Worker{Worker: e.NewWorker(id), DB: db}
}

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
	return w.Retry(func() error {
		tx := &Txn{w: w}
		w.Clk.Advance(w.E.Costs.TxnOverhead)
		if err := fn(tx); err != nil {
			return err
		}
		return tx.commit()
	}, errAbort)
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
		return nil, txn.ErrNotFound
	}
	tx.w.Clk.Advance(tx.w.E.Costs.LocalAccess)
	for attempt := 0; ; attempt++ {
		w1 := r.word.Load()
		if w1&lockBit != 0 {
			tx.w.Backoff(txn.BackoffLocalRead, attempt)
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
		return txn.ErrNotFound
	}
	tx.ws = append(tx.ws, wsEnt{table: table, key: key, rec: r, val: append([]byte(nil), val...)})
	return nil
}

// Insert buffers a new row.
func (tx *Txn) Insert(table memstore.TableID, key uint64, val []byte) error {
	tx.ws = append(tx.ws, wsEnt{table: table, key: key, insert: true, val: append([]byte(nil), val...)})
	return nil
}

// commitLockTries bounds the backoffs of one write-set lock before the
// commit gives up and the transaction retries.
const commitLockTries = 64

// commit is Silo's three-phase commit.
func (tx *Txn) commit() error {
	w := tx.w
	w.Clk.Advance(w.E.Costs.HTMRegion + time.Duration(len(tx.rs)+len(tx.ws))*w.E.Costs.PerValidate)
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
		for attempt := 0; ; attempt++ {
			cur := r.word.Load()
			if cur&lockBit == 0 && r.word.CompareAndSwap(cur, cur|lockBit) {
				break
			}
			if attempt == commitLockTries {
				unlock(locks[:i])
				return errAbort
			}
			w.Backoff(txn.BackoffCommitLock, attempt)
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
			e.rec, _ = w.DB.insertRow(e.table, e.key, e.val, tid)
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
