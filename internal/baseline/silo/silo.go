// Package silo implements the Silo baseline (Tu et al., SOSP'13): a fast
// single-machine, multicore in-memory database using OCC with decentralized
// epoch-based transaction IDs and per-record version locks — no HTM, no
// RDMA, no scale-out. The paper runs Silo with logging disabled on one
// machine of the cluster as the per-machine-efficiency yardstick (§7.2).
//
// Faithful to Silo's commit protocol: execution buffers writes and records
// (record, TID) pairs; commit locks the write set in global order, picks a
// TID greater than every observed TID within the current epoch, validates
// that read-set records are unchanged and not locked by others, installs,
// and unlocks. The record metadata word packs [lock bit | epoch | counter].
package silo

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drtmr/internal/memstore"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// TID word layout: bit 63 = lock, bits 33..62 = epoch, bits 0..32 = counter.
const (
	lockBit   = uint64(1) << 63
	epochBase = 33
)

func tidEpoch(w uint64) uint64   { return (w &^ lockBit) >> epochBase }
func tidCounter(w uint64) uint64 { return w & (1<<epochBase - 1) }
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
	stop   chan struct{}
	wg     sync.WaitGroup

	Cost txn.CostModel
}

// NewDB creates a database with the given table ids and starts the epoch
// thread (Silo advances the global epoch every ~40ms; the exact period only
// bounds freshness, not throughput).
func NewDB(tableIDs []memstore.TableID, cost txn.CostModel) *DB {
	db := &DB{tables: make(map[memstore.TableID]*Table), stop: make(chan struct{}), Cost: cost}
	db.epoch.Store(1)
	for _, id := range tableIDs {
		db.tables[id] = &Table{rows: make(map[uint64]*record)}
	}
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		for {
			select {
			case <-db.stop:
				return
			case <-time.After(10 * time.Millisecond):
				db.epoch.Add(1)
			}
		}
	}()
	return db
}

// Close stops the epoch thread.
func (db *DB) Close() {
	close(db.stop)
	db.wg.Wait()
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
		maxExp := 1 << uint(min(attempt, 8))
		w.Clk.Advance(time.Duration(1+w.rng.Intn(maxExp)) * w.DB.Cost.Backoff)
		sim.Spin(0)
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
	// Phase 1: lock the write set in a global order (pointer order is a
	// valid global order for heap records).
	locks := make([]*record, 0, len(tx.ws))
	for i := range tx.ws {
		if tx.ws[i].rec != nil {
			locks = append(locks, tx.ws[i].rec)
		}
	}
	sort.Slice(locks, func(i, j int) bool {
		return fmt.Sprintf("%p", locks[i]) < fmt.Sprintf("%p", locks[j])
	})
	locked := 0
	for _, r := range locks {
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
			for _, l := range locks[:locked] {
				l.word.Store(l.word.Load() &^ lockBit)
			}
			return errAbort
		}
		locked++
	}
	unlockTo := func(tid uint64) {
		for _, r := range locks {
			r.word.Store(tid)
		}
	}
	// Phase 2: compute TID and validate reads.
	epoch := w.DB.epoch.Load()
	var maxCtr uint64
	for _, e := range tx.rs {
		if tidEpoch(e.tid) == epoch && tidCounter(e.tid) > maxCtr {
			maxCtr = tidCounter(e.tid)
		}
	}
	for _, e := range tx.rs {
		cur := e.rec.word.Load()
		lockedByMe := false
		for _, l := range locks {
			if l == e.rec {
				lockedByMe = true
				break
			}
		}
		if cur&lockBit != 0 && !lockedByMe {
			unlockAbort(locks, locked)
			return errAbort
		}
		if cur&^lockBit != e.tid&^lockBit {
			unlockAbort(locks, locked)
			return errAbort
		}
	}
	tid := makeTID(epoch, maxCtr+1)
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
	unlockTo(tid)
	return nil
}

func unlockAbort(locks []*record, n int) {
	for _, r := range locks[:n] {
		r.word.Store(r.word.Load() &^ lockBit)
	}
}
