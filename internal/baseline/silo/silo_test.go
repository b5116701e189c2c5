package silo

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"drtmr/internal/memstore"
	"drtmr/internal/txn"
)

func enc(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func dec(b []byte) uint64 { return binary.LittleEndian.Uint64(b[:8]) }

func newDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB([]memstore.TableID{1}, txn.DefaultCosts())
	t.Cleanup(db.Close)
	return db
}

func TestBasicReadWrite(t *testing.T) {
	db := newDB(t)
	if err := db.Insert(1, 5, enc(100)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(1, 5, enc(1)); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	w := db.NewWorker(0)
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
	if _, err := db.NewWorker(1).DB.row(1, 9), error(nil); err != nil {
		t.Fatal(err)
	}
	err := w.Run(func(tx *Txn) error {
		_, err := tx.Get(1, 999)
		return err
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if w.Stats.Committed != 2 {
		t.Fatalf("stats: %+v", w.Stats)
	}
}

func TestTxnInsertVisible(t *testing.T) {
	db := newDB(t)
	w := db.NewWorker(0)
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
	db := newDB(t)
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
			w := db.NewWorker(id)
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
	w := db.NewWorker(99)
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
