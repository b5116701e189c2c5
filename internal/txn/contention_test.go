package txn

import (
	"sync"
	"testing"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
)

// TestBackoffMaxExpCapped pins the backoff cap: no matter how many times a
// transaction has retried, one backoff advances the virtual clock by at most
// 2^DefaultBackoffMaxExp * Costs.Backoff (the ISSUE's unbounded-backoff tail
// contributor).
func TestBackoffMaxExpCapped(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		const exp = DefaultBackoffMaxExp
		w := newWorld(t, 1, 1, htm.Config{})
		wk := w.engines[0].NewWorker(0)
		cap64 := int64(1<<exp) * int64(w.engines[0].Costs.Backoff)
		for _, attempt := range []int{0, 1, exp, exp + 1, 1000, 1 << 20} {
			for i := 0; i < 32; i++ {
				before := wk.Clk.Now()
				wk.backoff(attempt)
				d := wk.Clk.Now() - before
				if d <= 0 {
					t.Fatalf("attempt %d: backoff advanced %dns, want > 0", attempt, d)
				}
				if d > cap64 {
					t.Fatalf("attempt %d: backoff advanced %dns, cap is %dns (2^%d * %v)",
						attempt, d, cap64, exp, w.engines[0].Costs.Backoff)
				}
			}
		}
	})
}

// TestDeltaInterleavedVersionChain alternates commutative deltas (Txn.Add)
// with plain read-modify-write commits on one record and requires the version
// chain to stay gap-free and duplicate-free: under replication every commit
// settles the seqnum exactly 2 higher (odd values are transient R.2 states),
// so after N commits the seqnum must be exactly 2N — a delta that skipped
// version maintenance, or applied twice, shows up immediately.
func TestDeltaInterleavedVersionChain(t *testing.T) {
	const rounds = 20
	w := newWorld(t, 3, 3, htm.Config{})
	w.load(t, 1, 100)
	wk := w.engines[0].NewWorker(0)
	want := uint64(100)
	for i := 0; i < rounds; i++ {
		if i%2 == 0 {
			if err := wk.Run(func(tx *Txn) error {
				return tx.Add(tblAcct, 0, 0, 7)
			}); err != nil {
				t.Fatalf("round %d (delta): %v", i, err)
			}
			want += 7
		} else {
			if err := wk.Run(func(tx *Txn) error {
				v, err := tx.Read(tblAcct, 0)
				if err != nil {
					return err
				}
				return tx.Write(tblAcct, 0, encBal(decBal(v)+3))
			}); err != nil {
				t.Fatalf("round %d (rmw): %v", i, err)
			}
			want += 3
		}
	}
	m := w.c.Machines[0]
	off, ok := m.Store.Table(tblAcct).Lookup(0)
	if !ok {
		t.Fatal("record vanished")
	}
	if got := decBal(m.Store.Table(tblAcct).ReadValueNonTx(off)); got != want {
		t.Fatalf("final balance %d, want %d", got, want)
	}
	if got := m.Eng.Load64NonTx(off + memstore.SeqOff); got != 2*rounds {
		t.Fatalf("seqnum %d after %d commits, want %d (gap or duplicate in the version chain)",
			got, rounds, 2*rounds)
	}
}

// TestAddBuildsDeltaEntry pins Txn.Add's write-set shape with the manager on:
// a delta-shaped update carries the operation, not the value — no read-set
// entry (nothing to validate-abort on) and a wsDelta entry folding repeated
// adds to the same field.
func TestAddBuildsDeltaEntry(t *testing.T) {
	w := newWorld(t, 1, 1, htm.Config{})
	w.load(t, 1, 100)
	wk := w.engines[0].NewWorker(0)
	tx := wk.Begin()
	if err := tx.Add(tblAcct, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(tblAcct, 0, 8, 1); err != nil {
		t.Fatal(err)
	}
	if len(tx.rs) != 0 {
		t.Fatalf("Add populated the read set (%d entries): deltas must not validate", len(tx.rs))
	}
	if len(tx.ws) != 1 || tx.ws[0].kind != wsDelta {
		t.Fatalf("want one wsDelta entry, got %d entries", len(tx.ws))
	}
	if got := len(tx.ws[0].deltas); got != 2 {
		t.Fatalf("want 2 folded deltas, got %d", got)
	}
}

// TestAddOffModeDegrades pins the ablation: with ContentionOff, Txn.Add is
// the read-modify-write it replaced — a read-set entry (so it validates like
// any plain write) and a wsUpdate carrying the computed value.
func TestAddOffModeDegrades(t *testing.T) {
	w := newWorld(t, 1, 1, htm.Config{})
	w.engines[0].ContentionMode = ContentionOff
	w.load(t, 1, 100)
	wk := w.engines[0].NewWorker(0)
	tx := wk.Begin()
	if err := tx.Add(tblAcct, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if len(tx.rs) != 1 {
		t.Fatalf("off-mode Add made %d read-set entries, want 1", len(tx.rs))
	}
	if len(tx.ws) != 1 || tx.ws[0].kind != wsUpdate {
		t.Fatalf("off-mode Add must degrade to wsUpdate, got %d entries", len(tx.ws))
	}
	if got := decBal(tx.ws[0].buf); got != 105 {
		t.Fatalf("off-mode Add staged balance %d, want 105", got)
	}
}

// TestReadStableUntracked pins ReadStable's contract: with the manager on it
// returns the committed value without enrolling the record in the read set
// (so a later writer cannot validate-abort the reader), while a pending own
// write still wins; with the manager off it degrades to a plain tracked Read
// so the ablation keeps the false sharing it measures.
func TestReadStableUntracked(t *testing.T) {
	w := newWorld(t, 1, 1, htm.Config{})
	w.load(t, 2, 100)
	wk := w.engines[0].NewWorker(0)
	tx := wk.Begin()
	v, err := tx.ReadStable(tblAcct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := decBal(v); got != 100 {
		t.Fatalf("stable read returned balance %d, want 100", got)
	}
	if len(tx.rs) != 0 {
		t.Fatalf("ReadStable enrolled %d read-set entries, want 0", len(tx.rs))
	}
	// A pending own write supplies the value instead of a re-fetch.
	if err := tx.Write(tblAcct, 1, encBal(7)); err != nil {
		t.Fatal(err)
	}
	if v, err = tx.ReadStable(tblAcct, 1); err != nil {
		t.Fatal(err)
	}
	if got := decBal(v); got != 7 {
		t.Fatalf("stable read ignored the pending own write: got %d, want 7", got)
	}

	w.engines[0].ContentionMode = ContentionOff
	tx = wk.Begin()
	if _, err := tx.ReadStable(tblAcct, 0); err != nil {
		t.Fatal(err)
	}
	if len(tx.rs) != 1 {
		t.Fatalf("off-mode ReadStable made %d read-set entries, want 1 (plain Read)", len(tx.rs))
	}
}

// TestHotKeyQueueConservation hammers one record from every machine: the
// FIFO gates must neither
// lose updates (conservation) nor wedge (bounded test time). With real
// conflict pressure, at least some retries should have gone through the
// queue — counted as gate admissions, not queue waits: these workers run one
// transaction at a time, so no sibling coroutine ever advances a parked
// waiter's clock and its virtual wait is always zero.
func TestHotKeyQueueConservation(t *testing.T) {
	const (
		nodes   = 3
		perNode = 2
		iters   = 40
	)
	w := newWorld(t, nodes, 1, htm.Config{})
	w.load(t, 1, 1000)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var aborts, admissions, queueWaits uint64
	for n := 0; n < nodes; n++ {
		for tid := 0; tid < perNode; tid++ {
			wk := w.engines[n].NewWorker(tid)
			wg.Add(1)
			go func(wk *Worker) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := wk.Run(func(tx *Txn) error {
						v, err := tx.Read(tblAcct, 0)
						if err != nil {
							return err
						}
						return tx.Write(tblAcct, 0, encBal(decBal(v)+1))
					}); err != nil {
						t.Error(err)
						return
					}
				}
				mu.Lock()
				aborts += wk.Stats.AbortsTotal()
				admissions += wk.Stats.GateAdmissions
				queueWaits += wk.Stats.QueueWaits
				mu.Unlock()
			}(wk)
		}
	}
	wg.Wait()
	if got, want := w.totalOnPrimaries(1), uint64(1000+nodes*perNode*iters); got != want {
		t.Fatalf("updates lost through the hot-key queue: balance %d, want %d", got, want)
	}
	t.Logf("aborts=%d admissions=%d queueWaits=%d", aborts, admissions, queueWaits)
	if aborts > 50 && admissions == 0 {
		t.Fatalf("%d aborts on one key, but nothing ever queued", aborts)
	}
	if queueWaits > admissions {
		t.Fatalf("%d queue waits exceed %d gate admissions", queueWaits, admissions)
	}
}

// TestKeyGateFIFO exercises the ticket gate directly: grants come in ticket
// order, and abandoned tickets are skipped instead of wedging the queue —
// whether they were abandoned while waiting or while being served.
func TestKeyGateFIFO(t *testing.T) {
	g := &keyGate{}
	t0 := g.enqueue()
	t1 := g.enqueue()
	t2 := g.enqueue()
	if g.tryEnter(t1) {
		t.Fatal("ticket 1 admitted before ticket 0 released")
	}
	if !g.tryEnter(t0) {
		t.Fatal("ticket 0 not admitted at the head of the queue")
	}
	g.release()
	// Ticket 1 is now being served but walks away: its abandon doubles as
	// the release.
	g.abandon(t1)
	if !g.tryEnter(t2) {
		t.Fatal("abandoned ticket wedged the queue")
	}
	// Abandon a ticket that is still waiting, then release the head: the
	// queue must skip straight over the dead ticket to the live one.
	t3 := g.enqueue()
	t4 := g.enqueue()
	g.abandon(t3)
	g.release() // releases t2
	if g.tryEnter(t3) {
		t.Fatal("abandoned ticket 3 was admitted")
	}
	if !g.tryEnter(t4) {
		t.Fatal("queue did not skip the abandoned ticket 3")
	}
	g.release()
	// An empty queue admits a fresh ticket immediately.
	t5 := g.enqueue()
	if !g.tryEnter(t5) {
		t.Fatal("fresh ticket on an idle queue not admitted")
	}
}
