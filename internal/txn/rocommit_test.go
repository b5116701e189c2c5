package txn

import (
	"errors"
	"fmt"
	"testing"

	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/memstore"
)

// primary returns the machine holding key's primary copy and the record's
// offset there.
func (w *world) primary(t *testing.T, key uint64) (*cluster.Machine, uint64) {
	t.Helper()
	m := w.c.Machines[w.c.Coord.Current().PrimaryOf(cluster.ShardID(key%uint64(w.c.Spec.Nodes)))]
	off, ok := m.Store.Table(tblAcct).Lookup(key)
	if !ok {
		t.Fatalf("key %d missing on its primary", key)
	}
	return m, off
}

// install writes balance v over key at seq+1, leaving the lock word alone:
// what a writer's C.4 does to its local records and its C.5 to remote ones.
func (w *world) install(t *testing.T, key, v uint64) {
	t.Helper()
	m, off := w.primary(t, key)
	var hdr [24]byte
	h := m.Eng.ReadNonTx(off, 24, hdr[:])
	img := memstore.BuildRecordImage(16, encBal(v), memstore.RecInc(h), memstore.RecSeq(h)+1)
	m.Eng.WriteNonTx(off+8, img[8:])
}

// setLock CASes key's lock word from old to new over RDMA from machine from.
func (w *world) setLock(t *testing.T, from int, key, old, new uint64) {
	t.Helper()
	m, off := w.primary(t, key)
	if _, ok, _ := w.engines[from].NewWorker(9).QP(m.ID).CAS(off+memstore.LockOff, old, new); !ok {
		t.Fatalf("lock word of key %d is not %#x", key, old)
	}
}

// wantAbort fails unless err is a keyed abort with the given reason, stage,
// record and site.
func wantAbort(t *testing.T, err error, r AbortReason, stage uint8, key uint64, site uint16) {
	t.Helper()
	var te *Error
	if !errors.As(err, &te) || te.Reason != r || te.Stage != stage || !te.HasKey ||
		te.Table != tblAcct || te.Key != key || te.Site != site {
		t.Fatalf("want %v on acct/%d at %s from node %d, got %v (%+v)", r, key, StageName(stage), site, err, te)
	}
}

// TestReadOnlyRejectsLockedRecord: writer W on node 0 has locked remote
// record X (key 1, node 1) at C.1 and installed its local record Y (key 0)
// at C.4, but not yet written X back at C.5. Reader R on node 0 read X before
// W's C.1 and reads Y after W's C.4: X's version has not moved, but X is
// locked, so R's commit must abort, keyed on X. R's retry, after W finished
// (X at seq+1, then unlocked), sees both of W's writes and commits.
func TestReadOnlyRejectsLockedRecord(t *testing.T) {
	const x, y = 1, 0
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 6, 100)
	wk := w.engines[0].NewWorker(0)
	word := memstore.LockWord(0)

	tx := wk.BeginReadOnly()
	if _, err := tx.Read(tblAcct, x); err != nil {
		t.Fatal(err)
	}
	w.setLock(t, 0, x, 0, word) // W's C.1
	w.install(t, y, 110)        // W's C.4
	v, err := tx.Read(tblAcct, y)
	if err != nil || decBal(v) != 110 {
		t.Fatalf("read of Y: %v, %v", v, err)
	}
	wantAbort(t, tx.Commit(), AbortLocked, StageROValidate, x, 1)

	w.install(t, x, 90) // W's C.5
	w.setLock(t, 0, x, word, 0)
	tx = wk.BeginReadOnly()
	xv, err := tx.Read(tblAcct, x)
	if err != nil {
		t.Fatal(err)
	}
	yv, err := tx.Read(tblAcct, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if decBal(xv) != 90 || decBal(yv) != 110 {
		t.Fatalf("retry read X %d, Y %d; want 90, 110", decBal(xv), decBal(yv))
	}
}

// TestReadOnlyCarriedHeaders: a read-only READ to node n carries the headers
// of every earlier remote read-set entry when they all live on n, at most
// maxCarry of them, and commit then checks neither those nor the last read.
// The headers' verbs count to PhaseROValidate and ROVerbs but ring no
// doorbell of their own; one that changed or is locked aborts the read,
// keyed on its record. The worker runs on node 0 of three, so keys 1, 4, 7,
// ... live on node 1 and keys 2, 5, ... on node 2.
func TestReadOnlyCarriedHeaders(t *testing.T) {
	cases := []struct {
		name    string
		keys    []uint64
		mut     Mutations
		disturb func(t *testing.T, w *world) // runs before the last read
		// wantErr, when set, is the reason the last read aborts with, keyed
		// on key 1 (node 1) at StageExec.
		wantErr     AbortReason
		roVerbs     uint64 // Stats.ROVerbs = PhaseROValidate verbs
		roBatches   uint64 // PhaseROValidate doorbells
		commitNanos int64
	}{
		// The second READ carries key 1's header; commit rings nothing.
		{name: "two-on-one-node", keys: []uint64{1, 4}, roVerbs: 1},
		// Carried 1+2+...+7 headers; the eighth record's READ is the last.
		{name: "eight-on-one-node", keys: []uint64{1, 4, 7, 10, 13, 16, 19, 22}, roVerbs: 28},
		// The ninth READ has eight earlier entries: past the cap it carries
		// none, and commit checks all but the last in one doorbell.
		{name: "nine-on-one-node", keys: []uint64{1, 4, 7, 10, 13, 16, 19, 22, 25}, roVerbs: 28 + 8, roBatches: 1},
		// Key 2's READ cannot carry key 1's (another node): commit checks key 1.
		{name: "two-nodes", keys: []uint64{1, 2}, roVerbs: 1, roBatches: 1},
		// A local last read carries nothing and commit checks key 1 with a
		// doorbell; the local record is the snapshot and is not checked.
		{name: "remote-then-local", keys: []uint64{1, 0}, roVerbs: 1, roBatches: 1},
		// Local entries do not stop a carry, and commit checks them from
		// memory at PerValidate each (keys 0 and 3) with no doorbell.
		{name: "local-then-remote", keys: []uint64{0, 1, 3, 4}, roVerbs: 1, commitNanos: 2 * 120},
		{
			name: "changed", keys: []uint64{1, 4},
			disturb: func(t *testing.T, w *world) { w.install(t, 1, 7) },
			wantErr: AbortValidate, roVerbs: 1,
		},
		{
			// Node 2's C.1 lock on key 1, which it may only have read.
			name: "locked", keys: []uint64{1, 4},
			disturb: func(t *testing.T, w *world) { w.setLock(t, 2, 1, 0, memstore.LockWord(2)) },
			wantErr: AbortLocked, roVerbs: 1,
		},
		{
			name: "skip-ro-validate", keys: []uint64{1, 4}, mut: Mutations{SkipROValidate: true},
			disturb: func(t *testing.T, w *world) { w.install(t, 1, 7) },
			roVerbs: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 3, 1, htm.Config{})
			w.load(t, 30, 100)
			w.engines[0].Mut = c.mut
			wk := w.engines[0].NewWorker(0)
			tx := wk.BeginReadOnly()
			var err error
			for i, k := range c.keys {
				if i == len(c.keys)-1 && c.disturb != nil {
					c.disturb(t, w)
				}
				if _, err = tx.Read(tblAcct, k); err != nil {
					break
				}
			}
			if c.wantErr != 0 {
				wantAbort(t, err, c.wantErr, StageExec, 1, 1)
			} else {
				if err != nil {
					t.Fatal(err)
				}
				start := wk.Clk.Now()
				if err := tx.Commit(); err != nil {
					t.Fatalf("commit: %v", err)
				}
				ns := wk.Clk.Now() - start
				if c.roBatches == 0 && ns != c.commitNanos {
					t.Errorf("commit took %d virtual ns, want %d", ns, c.commitNanos)
				}
			}
			ph := wk.Stats.Phases[PhaseROValidate]
			if wk.Stats.ROVerbs != c.roVerbs || ph.Verbs != c.roVerbs || ph.Batches != c.roBatches {
				t.Errorf("ROVerbs %d, ro-validate verbs %d in %d doorbells; want %d in %d",
					wk.Stats.ROVerbs, ph.Verbs, ph.Batches, c.roVerbs, c.roBatches)
			}
		})
	}
}

// TestZombieUserErrorValidated: a body that saw a state no serial order
// produces must not answer its caller. The body on node 0 reads X (key 1,
// node 1); a transfer of 10 from X to Y (key 0, node 0) then commits on node
// 1; the body reads Y, sees 100 + 110 and returns a user error. That error
// rests on a stale read of X, so the attempt aborts at the read-only
// validation and retries, and the retry sees 90 + 110 and commits. Over Run
// and RunReadOnly, under both protocols.
func TestZombieUserErrorValidated(t *testing.T) {
	const x, y = 1, 0
	errSum := errors.New("balances do not sum to 200")
	for _, proto := range []string{"drtmr", "farm"} {
		for _, readOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/readonly=%v", proto, readOnly), func(t *testing.T) {
				w := newWorld(t, 3, 1, htm.Config{})
				w.load(t, 6, 100)
				wk, other := w.engines[0].NewWorker(0), w.engines[1].NewWorker(1)
				wk.Protocol, other.Protocol = proto, proto
				transfer := func(tx *Txn) error {
					xv, err := tx.Read(tblAcct, x)
					if err != nil {
						return err
					}
					yv, err := tx.Read(tblAcct, y)
					if err != nil {
						return err
					}
					if err := tx.Write(tblAcct, x, encBal(decBal(xv)-10)); err != nil {
						return err
					}
					return tx.Write(tblAcct, y, encBal(decBal(yv)+10))
				}
				run := wk.Run
				if readOnly {
					run = wk.RunReadOnly
				}
				attempts := 0
				err := run(func(tx *Txn) error {
					attempts++
					xv, err := tx.Read(tblAcct, x)
					if err != nil {
						return err
					}
					if attempts == 1 {
						if err := other.Run(transfer); err != nil {
							t.Errorf("transfer: %v", err)
						}
					}
					yv, err := tx.Read(tblAcct, y)
					if err != nil {
						return err
					}
					if decBal(xv)+decBal(yv) != 200 {
						return errSum
					}
					return nil
				})
				if err != nil || attempts != 2 {
					t.Fatalf("after %d attempts: %v; want a commit on the second", attempts, err)
				}
				if got := wk.Stats.AbortMatrix.StageReasonTotal(uint8(AbortValidate), StageROValidate); got != 1 {
					t.Fatalf("%d validate aborts at %s, want 1", got, StageName(StageROValidate))
				}
			})
		}
	}
}
