package txn

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/sim"
)

// TestCoroutineAblationExact pins the pure-refactor contract: driving a
// worker through RunCoroutines(1) must leave the virtual clock and EVERY
// stats counter bit-identical to the classic sequential loop.
func TestCoroutineAblationExact(t *testing.T) {
	const iters = 30
	run := func(viaSched bool) (int64, Stats) {
		w := newWorld(t, 3, 1, htm.Config{})
		w.load(t, 12, 1000)
		wk := w.engines[0].NewWorker(0)
		body := func() {
			for i := 0; i < iters; i++ {
				if err := runEightRemoteTransfer(wk); err != nil {
					t.Error(err)
					return
				}
			}
		}
		if viaSched {
			wk.RunCoroutines(1, func(int) { body() })
		} else {
			body()
		}
		return wk.Clk.Now(), wk.Stats
	}
	clkPlain, stPlain := run(false)
	clkCoro, stCoro := run(true)
	if clkPlain != clkCoro {
		t.Errorf("virtual clock differs: plain=%d coro(1)=%d", clkPlain, clkCoro)
	}
	if !reflect.DeepEqual(stPlain, stCoro) {
		t.Errorf("stats differ:\nplain   %+v\ncoro(1) %+v", stPlain, stCoro)
	}
	if stCoro.CoYields != 0 || stCoro.CoOverlapNanos != 0 || stCoro.CoMaxInFlight != 0 {
		t.Errorf("N=1 recorded overlap activity: %+v", stCoro)
	}
}

// TestCoroutineOverlapSpeedup pins the tentpole claim: with 4 in-flight
// transaction contexts per worker, the 8-remote-record distributed commit
// workload runs at >= 1.5x the per-worker virtual-time throughput of the
// one-transaction-per-thread baseline (and the N=1 measurement itself is
// exactly the doorbell-batched baseline).
func TestCoroutineOverlapSpeedup(t *testing.T) {
	n1 := coroCommitVirtualNanos(t, 1, 40)
	base := commitVirtualNanos(t, false, 40)
	if n1 != base {
		t.Errorf("N=1 ablation not bit-identical: %.0f vs baseline %.0f virtual-ns/commit", n1, base)
	}
	n4 := coroCommitVirtualNanos(t, 4, 10)
	t.Logf("virtual ns/commit: N=1 %.0f, N=4 %.0f (%.2fx)", n1, n4, n1/n4)
	if n4 <= 0 {
		t.Fatal("N=4 run charged no virtual time")
	}
	if n1 < 1.5*n4 {
		t.Fatalf("coroutine overlap speedup %.2fx < 1.5x (N=1 %.0fns, N=4 %.0fns)", n1/n4, n1, n4)
	}
}

// TestCoroutineOverlapCounters checks the overlap instrumentation: an
// overlapped run must record yields, hidden round-trip time, and an
// in-flight peak above 1 (overlap happened) and at most N (each context
// has at most one outstanding doorbell).
func TestCoroutineOverlapCounters(t *testing.T) {
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 48, 1000)
	wk := w.engines[0].NewWorker(0)
	wk.RunCoroutines(4, func(slot int) {
		for i := 0; i < 5; i++ {
			if err := runEightRemoteTransferAt(wk, uint64(12*slot)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	st := wk.Stats
	if st.Committed != 20 {
		t.Fatalf("committed %d, want 20", st.Committed)
	}
	if st.CoYields == 0 {
		t.Error("no yields recorded")
	}
	if st.CoOverlapNanos == 0 {
		t.Error("no round-trip time was hidden")
	}
	if st.CoMaxInFlight < 2 || st.CoMaxInFlight > 4 {
		t.Errorf("in-flight peak %d, want 2..4", st.CoMaxInFlight)
	}
}

// TestYieldInsideHTMPanics injects a yield attempt inside an open HTM
// region: the scheduler must refuse it loudly (speculative state cannot
// survive a context switch).
func TestYieldInsideHTMPanics(t *testing.T) {
	w := newWorld(t, 2, 1, htm.Config{})
	w.load(t, 2, 100)
	wk := w.engines[0].NewWorker(0)
	panicked := make(chan any, 1)
	wk.RunCoroutines(2, func(slot int) {
		if slot != 0 {
			return
		}
		func() {
			defer func() { panicked <- recover() }()
			wk.htmBegin()
			defer wk.htmEnd()
			//drtmr:allow htmregion deliberately trips the runtime yield-in-HTM assert under test
			wk.yield()
		}()
	})
	if p := <-panicked; p == nil {
		t.Fatal("yield inside an HTM region did not panic")
	}
}

// TestCoroutineBankInvariant runs contending coroutine-scheduled workers on
// all machines and checks conservation: intra-worker interleaving (several
// in-flight transactions sharing one worker's QPs and lock word) must not
// lose or invent money.
func TestCoroutineBankInvariant(t *testing.T) {
	const keys = 24
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, keys, 1000)
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		wk := w.engines[n].NewWorker(n)
		wg.Add(1)
		go func(wk *Worker, seed uint64) {
			defer wg.Done()
			wk.RunCoroutines(4, func(slot int) {
				rng := sim.NewRand(seed*131 + uint64(slot) + 1)
				for i := 0; i < 40; i++ {
					from := uint64(rng.Intn(keys))
					to := uint64(rng.Intn(keys))
					if from == to {
						continue
					}
					_ = wk.Run(func(tx *Txn) error {
						fv, err := tx.Read(tblAcct, from)
						if err != nil {
							return err
						}
						tv, err := tx.Read(tblAcct, to)
						if err != nil {
							return err
						}
						if err := tx.Write(tblAcct, from, encBal(decBal(fv)-1)); err != nil {
							return err
						}
						return tx.Write(tblAcct, to, encBal(decBal(tv)+1))
					})
				}
			})
		}(wk, uint64(n))
	}
	wg.Wait()
	if got, want := w.totalOnPrimaries(keys), uint64(keys*1000); got != want {
		t.Fatalf("money not conserved: total %d, want %d", got, want)
	}
}

// TestDanglingCoroutineLockReleased extends §5.2's passive-release coverage
// to the coroutine scheduler: a coroutine acquires C.1 locks through one
// batched doorbell, yields, and its machine dies before it ever resumes to
// unlock. The locks must be cleared by whoever trips over them after the
// reconfiguration — including a coroutine-scheduled worker.
func TestDanglingCoroutineLockReleased(t *testing.T) {
	w := newWorld(t, 3, 3, htm.Config{})
	w.load(t, 6, 100)
	m0 := w.c.Machines[0]
	offA, _ := m0.Store.Table(tblAcct).Lookup(0)
	offB, _ := m0.Store.Table(tblAcct).Lookup(3)

	// A coroutine on node 2 locks two node-0 records (keys 0 and 3, both
	// shard 0) via the batched C.1 doorbell — remote reads and the lock
	// batch all yield through the scheduler — then returns mid-pipeline,
	// modelling a context that dies parked at a yield point.
	wk2 := w.engines[2].NewWorker(0)
	locked := false
	wk2.RunCoroutines(2, func(slot int) {
		if slot != 0 {
			return
		}
		tx := wk2.Begin()
		for _, k := range []uint64{0, 3} {
			v, err := tx.Read(tblAcct, k)
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Write(tblAcct, k, encBal(decBal(v)+1)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := tx.resolveWriteOffsets(); err != nil {
			t.Error(err)
			return
		}
		locks, err := tx.lockSet(scopeRemote)
		if err != nil {
			t.Error(err)
			return
		}
		if err := tx.lockRemote(locks); err != nil {
			t.Error(err)
			return
		}
		locked = true
	})
	if !locked {
		t.Fatal("setup: coroutine never acquired the locks")
	}
	want := memstore.LockWord(2)
	for _, off := range []uint64{offA, offB} {
		if got := m0.Eng.Load64NonTx(off + memstore.LockOff); got != want {
			t.Fatalf("setup: lock word %#x, want %#x", got, want)
		}
	}

	w.c.Kill(2)
	deadline := time.Now().Add(2 * time.Second)
	for w.c.Coord.Current().IsMember(2) {
		if time.Now().After(deadline) {
			t.Fatal("no reconfig")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for m0.Config().IsMember(2) || w.c.Machines[1].Config().IsMember(2) {
		time.Sleep(2 * time.Millisecond)
	}

	// A coroutine-scheduled worker on node 1 commits against both records:
	// its C.1 CAS finds the dead owner's word, passively releases it, and
	// the retry batch acquires.
	wk1 := w.engines[1].NewWorker(1)
	var runErr error
	wk1.RunCoroutines(2, func(slot int) {
		if slot != 0 {
			return
		}
		runErr = wk1.Run(func(tx *Txn) error {
			for _, k := range []uint64{0, 3} {
				v, err := tx.Read(tblAcct, k)
				if err != nil {
					return err
				}
				if err := tx.Write(tblAcct, k, encBal(decBal(v)+7)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, off := range []uint64{offA, offB} {
		if got := m0.Eng.Load64NonTx(off + memstore.LockOff); got != 0 {
			t.Fatalf("dangling lock still held: %#x", got)
		}
	}
	if got := decBal(m0.Store.Table(tblAcct).ReadValueNonTx(offA)); got != 107 {
		t.Fatalf("write did not land: balance %d, want 107", got)
	}
}
