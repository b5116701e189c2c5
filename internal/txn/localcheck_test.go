package txn

import (
	"errors"
	"testing"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
)

// TestLocalCheckBeforeLock: before C.1 takes a remote lock, drtmr runs C.3's
// predicate (incarnation and sequence number, not the lock word) over the
// local records the transaction both read and writes. A commit that C.3
// would reject aborts there, at StageLocalHTM and keyed on the record, with
// no lock or unlock doorbell; everything else is left to C.3 as before.
// T runs on node 0 of three; keys 0 and 3 are local to it, 1 is on node 1.
func TestLocalCheckBeforeLock(t *testing.T) {
	bumpInc := func(w *world, key uint64) {
		m := w.c.Machines[0]
		off, _ := m.Store.Table(tblAcct).Lookup(key)
		m.Eng.FAA64NonTx(off+memstore.IncOff, 1)
	}
	sibling := func(t *testing.T, w *world, key uint64) {
		if err := runTransfer(w.engines[0].NewWorker(1), []uint64{key}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		mut      Mutations
		readOnly []uint64 // keys T only reads
		rw       []uint64 // keys T reads and rewrites
		disturb  func(t *testing.T, w *world)
		// during runs once, at T's first scheduling point in Commit: the
		// doorbell of C.1.
		during func(w *world)

		commits         bool   // else: AbortValidate on key 0 at StageLocalHTM
		checked         int    // local headers the pre-C.1 check read
		lockDoorbells   uint64 // PhaseLock doorbells T's Commit rang
		unlockDoorbells uint64 // PhaseUnlock doorbells (a back-out, or C.5+C.6)
		commitNs        int64  // virtual ns of Commit, when pinned
	}{
		{
			name: "sibling-commit-caught-before-lock", rw: []uint64{0, 1},
			disturb: func(t *testing.T, w *world) { sibling(t, w, 0) },
			checked: 1,
		},
		{
			name: "read-only-local-left-to-C.3", readOnly: []uint64{0}, rw: []uint64{1},
			disturb:       func(t *testing.T, w *world) { sibling(t, w, 0) },
			lockDoorbells: 1, unlockDoorbells: 1,
		},
		{
			// Node 1's C.1 locks a record it only read with the same CAS a
			// writer uses; the word says nothing about the record's version.
			name: "lock-word-alone-does-not-abort", rw: []uint64{0, 1},
			disturb: func(t *testing.T, w *world) {
				off, _ := w.c.Machines[0].Store.Table(tblAcct).Lookup(0)
				if _, ok, _ := w.engines[1].NewWorker(9).QP(0).CAS(off+memstore.LockOff, 0, memstore.LockWord(1)); !ok {
					t.Fatal("setup lock failed")
				}
			},
			during: func(w *world) {
				off, _ := w.c.Machines[0].Store.Table(tblAcct).Lookup(0)
				w.engines[1].NewWorker(9).QP(0).CAS(off+memstore.LockOff, memstore.LockWord(1), 0)
			},
			commits: true, checked: 1, lockDoorbells: 1, unlockDoorbells: 1,
		},
		// No remote target, so no check: HTMRegion + 4 x PerValidate (two
		// reads validated, two updates installed), as before the check.
		{name: "all-local-no-check", rw: []uint64{0, 3}, commits: true, commitNs: 400 + 4*120},
		{
			name: "incarnation-changed", rw: []uint64{0, 1},
			disturb: func(t *testing.T, w *world) { bumpInc(w, 0) },
			checked: 1,
		},
		{
			name: "skip-local-validate", mut: Mutations{SkipLocalValidate: true}, rw: []uint64{0, 1},
			disturb: func(t *testing.T, w *world) { sibling(t, w, 0) },
			commits: true, lockDoorbells: 1, unlockDoorbells: 1,
		},
		{
			name: "skip-inc-check", mut: Mutations{SkipIncCheck: true}, rw: []uint64{0, 1},
			disturb: func(t *testing.T, w *world) { bumpInc(w, 0) },
			commits: true, checked: 1, lockDoorbells: 1, unlockDoorbells: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 3, 1, htm.Config{})
			w.load(t, 6, 100)
			w.engines[0].Mut = c.mut
			wk := w.engines[0].NewWorker(0)
			rec := wk.EnableTrace(1 << 10)
			tx := wk.Begin()
			for _, k := range c.readOnly {
				if _, err := tx.Read(tblAcct, k); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range c.rw {
				v, err := tx.Read(tblAcct, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(tblAcct, k, encBal(decBal(v)+1)); err != nil {
					t.Fatal(err)
				}
			}
			if c.disturb != nil {
				c.disturb(t, w)
			}
			during := c.during
			wk.SetGate(func() {
				if during != nil {
					during(w)
					during = nil
				}
			})
			before := wk.Stats.Phases
			start := wk.Clk.Now()
			err := tx.Commit()
			ns := wk.Clk.Now() - start
			wk.SetGate(nil)

			if c.commits {
				if err != nil {
					t.Fatalf("commit: %v", err)
				}
			} else {
				var te *Error
				if !errors.As(err, &te) || te.Reason != AbortValidate || te.Stage != StageLocalHTM ||
					!te.HasKey || te.Table != tblAcct || te.Key != 0 {
					t.Fatalf("want AbortValidate on acct/0 at %s, got %v (%+v)", StageName(StageLocalHTM), err, te)
				}
			}
			d := func(p CommitPhase) phasePin {
				return phasePin{wk.Stats.Phases[p].Verbs - before[p].Verbs, wk.Stats.Phases[p].Batches - before[p].Batches}
			}
			if got := d(PhaseLock).doorbells; got != c.lockDoorbells {
				t.Errorf("lock doorbells = %d, want %d", got, c.lockDoorbells)
			}
			if got := d(PhaseUnlock).doorbells; got != c.unlockDoorbells {
				t.Errorf("unlock doorbells = %d, want %d", got, c.unlockDoorbells)
			}
			if c.lockDoorbells == 0 && (d(PhaseLock).verbs != 0 || d(PhaseUnlock).verbs != 0) {
				t.Errorf("lock/unlock verbs = %d/%d with no lock doorbell", d(PhaseLock).verbs, d(PhaseUnlock).verbs)
			}
			// The check's header reads show as one StageLocalHTM phase span
			// ahead of C.1's doorbell, PerValidate each.
			var span int64
			for _, e := range rec.Events() {
				if e.Kind == obs.EvPhase && e.Detail == StageLocalHTM && e.ID == tx.id {
					span += e.End - e.Start
				}
			}
			if want := int64(c.checked) * int64(wk.E.Costs.PerValidate); span != want {
				t.Errorf("pre-C.1 check span = %d ns, want %d", span, want)
			}
			if c.commitNs != 0 && ns != c.commitNs {
				t.Errorf("commit took %d virtual ns, want %d", ns, c.commitNs)
			}
			w.assertNoLocksHeld(t, 6)
		})
	}
}
