package txn

import (
	"encoding/binary"
	"testing"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
)

// tblWide holds two-line records: a 64-byte value is 40 bytes on line 0 and
// 24 on line 1, whose version a torn view gives away (§4.3).
const tblWide memstore.TableID = 2

// tornWorld is a two-machine world whose record tblWide/1 lives on machine
// 1, left permanently torn: line 0's header says seq 3, line 1 still carries
// seq 2's version, as a reader racing a multi-line WRITE between its two
// lines would see it. It returns a worker on machine 0.
func tornWorld(t *testing.T) *Worker {
	t.Helper()
	w := newWorld(t, 2, 1, htm.Config{})
	for _, m := range w.c.Machines {
		m.Store.CreateTable(tblWide, memstore.TableSpec{Name: "wide", ValueSize: 64, ExpectedRows: 16})
	}
	m := w.c.Machines[1]
	const s = 2
	off, err := m.Store.Table(tblWide).InsertWithSeq(1, make([]byte, 64), s)
	if err != nil {
		t.Fatal(err)
	}
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], s+1)
	m.Eng.WriteNonTx(off+memstore.SeqOff, seq[:])
	if img := m.Eng.ReadNonTx(off, 128, nil); memstore.VersionsConsistent(img) {
		t.Fatal("the planted record is not torn")
	}
	return w.engines[0].NewWorker(0)
}

// wantTornAbort fails t unless err is a reason abort labelled detail, keyed
// on the torn record.
func wantTornAbort(t *testing.T, err error, reason AbortReason, detail string) {
	t.Helper()
	if te, ok := asError(err); !ok || te.Reason != reason || te.Detail != detail || te.Table != tblWide || te.Key != 1 {
		t.Fatalf("got %v, want a %v abort %q on wide/1", err, reason, detail)
	}
}

// TestTornRemoteReadNeverReturned: a remote Read of a record whose lines
// never agree must not return its value. It retries the READ 256 times and
// then aborts AbortStale.
func TestTornRemoteReadNeverReturned(t *testing.T) {
	wk := tornWorld(t)
	v, err := wk.Begin().Read(tblWide, 1)
	if err == nil {
		t.Fatalf("a torn remote record was read: %x", v)
	}
	wantTornAbort(t, err, AbortStale, "remote record never stabilized")
}

// TestTornDeltaBaseAborts: a blind Add to a remote record fetches the whole
// record behind its C.1 lock as the delta's base. A torn base must abort the
// commit AbortValidate, not be folded into the installed image.
func TestTornDeltaBaseAborts(t *testing.T) {
	wk := tornWorld(t)
	tx := wk.Begin()
	if err := tx.Add(tblWide, 1, 0, 5); err != nil {
		t.Fatal(err)
	}
	wantTornAbort(t, tx.Commit(), AbortValidate, "delta base torn")
}
