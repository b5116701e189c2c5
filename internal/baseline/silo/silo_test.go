package silo

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/txn"
)

func enc(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func dec(b []byte) uint64 { return binary.LittleEndian.Uint64(b[:8]) }

// newDB opens a one-table database and the engine of the bare one-machine
// cluster its workers run on.
func newDB(t *testing.T) (*DB, *txn.Engine) {
	t.Helper()
	c := cluster.New(cluster.Spec{Nodes: 1, MemBytes: 2 << 20})
	return NewDB([]memstore.TableID{1}), txn.NewEngine(c.Machines[0], nil, txn.DefaultCosts())
}

func tidEpoch(w uint64) uint64   { return (w &^ lockBit) >> epochBase }
func tidCounter(w uint64) uint64 { return w & (1<<epochBase - 1) }

// TestBlindWriteNeverReusesATID interleaves two blind writes of one record,
// by two workers, around a transaction that read the first one's value: the
// second write must install a TID other than the first's, or the reader
// validates a value that is gone. The TID is larger than the overwritten
// record's, not only than what the writer read (nothing, here).
func TestBlindWriteNeverReusesATID(t *testing.T) {
	db, e := newDB(t)
	if err := db.Insert(1, 5, enc(0)); err != nil {
		t.Fatal(err)
	}
	blind := func(w *Worker, v uint64) {
		t.Helper()
		if err := w.Run(func(tx *Txn) error { return tx.Put(1, 5, enc(v)) }); err != nil {
			t.Fatal(err)
		}
	}
	blind(db.NewWorker(e, 0), 1)
	reader := &Txn{w: db.NewWorker(e, 2)}
	v, err := reader.Get(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	first := db.row(1, 5).word.Load()
	blind(db.NewWorker(e, 1), 2)
	if err := reader.commit(); !errors.Is(err, errAbort) {
		r := db.row(1, 5)
		t.Fatalf("stale read of [%d] validated: the record now holds [%d] (word %#x, was %#x)",
			dec(v), dec(r.val), r.word.Load(), first)
	}
}

// TestWorkerTIDsIncrease holds Silo's rule that a worker's TIDs grow even
// across records that share no history.
func TestWorkerTIDsIncrease(t *testing.T) {
	db, e := newDB(t)
	w := db.NewWorker(e, 0)
	var last uint64
	for k := uint64(0); k < 4; k++ {
		if err := db.Insert(1, k, enc(0)); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(tx *Txn) error { return tx.Put(1, k, enc(1)) }); err != nil {
			t.Fatal(err)
		}
		if tid := db.row(1, k).word.Load(); tid <= last {
			t.Fatalf("record %d committed under TID %#x, not above the worker's last %#x", k, tid, last)
		} else {
			last = tid
		}
	}
}

func TestBasicReadWrite(t *testing.T) {
	db, e := newDB(t)
	if err := db.Insert(1, 5, enc(100)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(1, 5, enc(1)); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	w := db.NewWorker(e, 0)
	if err := w.Run(func(tx *Txn) error {
		v, err := tx.Get(1, 5)
		if err != nil {
			return err
		}
		return tx.Put(1, 5, enc(dec(v)+1))
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(tx *Txn) error {
		v, err := tx.Get(1, 5)
		if err != nil {
			return err
		}
		if dec(v) != 101 {
			t.Errorf("read back %d", dec(v))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewWorker(e, 1).DB.row(1, 9), error(nil); err != nil {
		t.Fatal(err)
	}
	err := w.Run(func(tx *Txn) error {
		_, err := tx.Get(1, 999)
		return err
	})
	if !errors.Is(err, txn.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if w.Stats.Committed != 2 {
		t.Fatalf("stats: %+v", w.Stats)
	}
}

func TestTxnInsertVisible(t *testing.T) {
	db, e := newDB(t)
	w := db.NewWorker(e, 0)
	if err := w.Run(func(tx *Txn) error {
		return tx.Insert(1, 77, enc(9))
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(tx *Txn) error {
		v, err := tx.Get(1, 77)
		if err != nil {
			return err
		}
		if dec(v) != 9 {
			t.Errorf("inserted value: %d", dec(v))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTransfersConserve is Silo's serializability smoke test: the
// OCC validation must serialize conflicting read-modify-writes.
func TestConcurrentTransfersConserve(t *testing.T) {
	db, e := newDB(t)
	const accounts = 8
	for k := uint64(0); k < accounts; k++ {
		if err := db.Insert(1, k, enc(1000)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for wid := 0; wid < 4; wid++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := db.NewWorker(e, id)
			for i := 0; i < 200; i++ {
				from := uint64((id + i) % accounts)
				to := uint64((id*3 + i*5 + 1) % accounts)
				if from == to {
					continue
				}
				if err := w.Run(func(tx *Txn) error {
					a, err := tx.Get(1, from)
					if err != nil {
						return err
					}
					b, err := tx.Get(1, to)
					if err != nil {
						return err
					}
					if dec(a) == 0 {
						return nil
					}
					if err := tx.Put(1, from, enc(dec(a)-1)); err != nil {
						return err
					}
					return tx.Put(1, to, enc(dec(b)+1))
				}); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	var total uint64
	w := db.NewWorker(e, 99)
	if err := w.Run(func(tx *Txn) error {
		total = 0
		for k := uint64(0); k < accounts; k++ {
			v, err := tx.Get(1, k)
			if err != nil {
				return err
			}
			total += dec(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*1000 {
		t.Fatalf("not conserved: %d", total)
	}
}

func TestTIDWordPacking(t *testing.T) {
	w := makeTID(7, 123)
	if tidEpoch(w) != 7 || tidCounter(w) != 123 {
		t.Fatalf("pack/unpack: e=%d c=%d", tidEpoch(w), tidCounter(w))
	}
	if tidEpoch(w|lockBit) != 7 {
		t.Fatal("lock bit must not leak into epoch")
	}
}
