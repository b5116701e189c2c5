package txn

import (
	"bytes"
	"testing"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
)

// The footprint index answers findRS and findWS once a set outgrows footScan
// entries. It is host work only: it must return the entry
// the scan returns, and a large transaction must cost the virtual time and
// verbs it cost before the index existed.

// scanWS is the reference answer: the first ws entry naming the record.
func scanWS(tx *Txn, table memstore.TableID, key uint64) *wsEntry {
	for i := range tx.ws {
		if tx.ws[i].table == table && tx.ws[i].key == key {
			return &tx.ws[i]
		}
	}
	return nil
}

// TestIndexedReReadIsCached: past the threshold, a second Read of a record
// returns the value the read set cached, with no second protocol read.
func TestIndexedReReadIsCached(t *testing.T) {
	const n = 3 * footScan
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 2*n, 0)
	wk := w.engines[0].NewWorker(0)
	rec := wk.EnableTrace(0)
	err := wk.Run(func(tx *Txn) error {
		for k := uint64(0); k < n; k++ {
			if err := tx.Write(tblAcct, k+n, encBal(k)); err != nil {
				return err
			}
		}
		first := make([][]byte, n)
		for k := uint64(0); k < n; k++ {
			v, err := tx.Read(tblAcct, k)
			if err != nil {
				return err
			}
			first[k] = v
		}
		if tx.rsIdx.slot == nil {
			t.Fatalf("no read-set index after %d reads", len(tx.rs))
		}
		reads, clk := len(tx.rs), wk.Clk.Now()
		regions, _ := htmRegions(rec)
		for k := uint64(n - 1); k < n; k-- {
			v, err := tx.Read(tblAcct, k)
			if err != nil {
				return err
			}
			if !bytes.Equal(v, first[k]) {
				t.Errorf("re-read of %d: %x, first read %x", k, v, first[k])
			}
		}
		if after, _ := htmRegions(rec); len(tx.rs) != reads || wk.Clk.Now() != clk || after != regions {
			t.Errorf("re-reads: read set %d→%d, clock %d→%d, HTM regions %d→%d; want all unchanged",
				reads, len(tx.rs), clk, wk.Clk.Now(), regions, after)
		}
		// The writes are the transaction's own: Read returns their buffers.
		for k := uint64(0); k < n; k++ {
			v, err := tx.Read(tblAcct, k+n)
			if err != nil {
				return err
			}
			if decBal(v) != k {
				t.Errorf("read of own write %d: %d", k+n, decBal(v))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexMatchesScanAfterDeleteInsert: a Delete then an Insert of one key
// leaves two ws entries, and findWS returns the first — the delete — whether
// the pair was appended before the index was built or after, and whether the
// set is below or past the threshold. A record of another table whose key
// hashes to the same slot comes first and must not be taken for it.
func TestIndexMatchesScanAfterDeleteInsert(t *testing.T) {
	w := newWorld(t, 1, 1, htm.Config{})
	wk := w.engines[0].NewWorker(0)
	const (
		victim = 1 << 30
		twin   = victim ^ uint64(tblAcct)<<56 // (0, twin) hashes as (tblAcct, victim)
	)
	for _, fill := range []int{0, footScan - 2, footScan - 1, footScan, 3 * footScan} {
		tx := wk.Begin()
		check := func(when string) {
			t.Helper()
			got, want := tx.findWS(tblAcct, victim), scanWS(tx, tblAcct, victim)
			if got != want || got == nil || got.kind != wsDelete {
				t.Fatalf("fill %d, %s: findWS = %p, scan = %p (want the delete)", fill, when, got, want)
			}
		}
		for k := 0; k < fill; k++ {
			if err := tx.Insert(tblAcct, uint64(k), encBal(1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Insert(0, twin, encBal(3)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(tblAcct, victim); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(tblAcct, victim, encBal(2)); err != nil {
			t.Fatal(err)
		}
		check("after the pair")
		for k := fill; k < fill+2*footScan; k++ {
			if err := tx.Insert(tblAcct, uint64(k), encBal(1)); err != nil {
				t.Fatal(err)
			}
		}
		if tx.wsIdx.slot == nil {
			t.Fatalf("fill %d: no index over %d ws entries", fill, len(tx.ws))
		}
		check("past the threshold")
		if e := tx.findWS(0, twin); e == nil || e != scanWS(tx, 0, twin) {
			t.Fatalf("fill %d: findWS of the twin = %p, scan = %p", fill, e, scanWS(tx, 0, twin))
		}
		for k := 0; k < fill+2*footScan; k++ {
			if got, want := tx.findWS(tblAcct, uint64(k)), scanWS(tx, tblAcct, uint64(k)); got != want {
				t.Fatalf("fill %d: findWS(%d) = %p, scan = %p", fill, k, got, want)
			}
		}
	}
}

// TestLargeReadOnlyTxnPinned: a 400-record read-only transaction over three
// machines, every tenth record read twice, commits with the verbs and the
// virtual time it took when findRS scanned the whole read set, less one
// local check: record 399, read last and local, is the snapshot and is not
// re-checked at commit (852 580 - PerValidate 120 ns). Its remote records
// span two nodes, so no READ carries headers and commit reads all 266.
func TestLargeReadOnlyTxnPinned(t *testing.T) {
	const (
		wantROVerbs = 266
		wantVirtNs  = 852460
	)
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 400, 7)
	wk := w.engines[0].NewWorker(0)
	start := wk.Clk.Now()
	err := wk.RunReadOnly(func(tx *Txn) error {
		for k := uint64(0); k < 400; k++ {
			v, err := tx.Read(tblAcct, k)
			if err != nil {
				return err
			}
			if decBal(v) != 7 {
				t.Errorf("record %d: %d", k, decBal(v))
			}
		}
		for k := uint64(0); k < 400; k += 10 {
			if _, err := tx.Read(tblAcct, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := wk.Clk.Now() - start; wk.Stats.ROVerbs != wantROVerbs || got != wantVirtNs || wk.Stats.Committed != 1 {
		t.Fatalf("ROVerbs %d, virtual %d ns, %d commits; want %d, %d ns, 1",
			wk.Stats.ROVerbs, got, wk.Stats.Committed, wantROVerbs, wantVirtNs)
	}
}
