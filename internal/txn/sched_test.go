package txn

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
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
	if stCoro.CoYields != 0 || stCoro.OverlapNanos != 0 {
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
// overlapped run must record yields and hidden round-trip time (overlap
// happened).
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
	if st.OverlapNanos == 0 {
		t.Error("no round-trip time was hidden")
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
			wk.yield(wk.Clk.Now(), false)
		}()
	})
	if p := <-panicked; p == nil {
		t.Fatal("yield inside an HTM region did not panic")
	}
}

// TestCoroutinePanicSurfaces: a panic inside a context comes out of
// RunCoroutines on the caller's goroutine, where it can be recovered, while a
// sibling stays parked. By then the worker has left the cluster's Frontier, so
// no other worker's idle jump waits on its clock, and it can run contexts again.
func TestCoroutinePanicSurfaces(t *testing.T) {
	w := newWorld(t, 1, 1, htm.Config{})
	wk := w.engines[0].NewWorker(0)
	got := func() (p any) {
		defer func() { p = recover() }()
		wk.RunCoroutines(2, func(slot int) {
			if slot == 1 {
				panic("context failed")
			}
			wk.Clk.Advance(time.Microsecond)
			wk.yield(wk.Clk.Now(), false) // parked when its sibling panics
		})
		return nil
	}()
	if got != "context failed" {
		t.Fatalf("RunCoroutines ended with %v, want the context's panic", got)
	}
	probe := w.c.Frontier.Join(&sim.Clock{})
	defer probe.Leave()
	if x := probe.Behind(sim.Forever); x != nil {
		t.Error("the worker whose context panicked is still on the Frontier")
	}
	ran := 0
	wk.RunCoroutines(2, func(int) {
		wk.yield(wk.Clk.Now(), false)
		ran++
	})
	if ran != 2 {
		t.Errorf("%d of 2 contexts ran after the panic", ran)
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
		var run LockRun
		if err := tx.lockRemote(locks, &run); err != nil {
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

	w.kill(t, 2)

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

// backoffWorld is a 3-node world whose retry backoff is exactly d: with
// attempt 0 the randomized range is [1, 2^0], so backoff(0) asks for
// 1 * Costs.Backoff.
func backoffWorld(t testing.TB, keys int, d time.Duration) *world {
	w := newWorld(t, 3, 1, htm.Config{})
	for _, e := range w.engines {
		e.Costs.Backoff = d
	}
	w.load(t, keys, 1000)
	return w
}

// TestBackoffChargesExactlyWithoutScheduler pins the N=1 side of the timed
// park: with no sibling context to use the time, a backoff advances the worker
// clock by exactly the delay it drew, through a plain call and through
// RunCoroutines(1) alike.
func TestBackoffChargesExactlyWithoutScheduler(t *testing.T) {
	const d = 100 * time.Microsecond
	for _, viaSched := range []bool{false, true} {
		wk := backoffWorld(t, 1, d).engines[0].NewWorker(0)
		if viaSched {
			wk.RunCoroutines(1, func(int) { wk.Backoff(BackoffRetry, 0) })
		} else {
			wk.Backoff(BackoffRetry, 0)
		}
		st := wk.Stats
		if wk.Clk.Now() != int64(d) || st.Backoffs != 1 || st.BackoffNanos != uint64(d) || st.BackoffStallNanos != uint64(d) {
			t.Errorf("viaSched=%v: clock %d, backoffs %d asked %d stalled %d; want all of one %v backoff charged",
				viaSched, wk.Clk.Now(), st.Backoffs, st.BackoffNanos, st.BackoffStallNanos, d)
		}
	}
}

// TestBackoffCannotOutpollAHolderOffTheCPU: a free-running worker with no
// scheduler retries against a holder the host is not running (here: asleep for
// 5 ms). Each backoff is spent on the host too, so the waiter's clock moves
// about as far as the wall clock did. Yielding only, it charged itself ~90 us
// per ~1 us retry: some 400 ms for this hold.
func TestBackoffCannotOutpollAHolderOffTheCPU(t *testing.T) {
	wk := backoffWorld(t, 1, 700*time.Nanosecond).engines[0].NewWorker(0)
	var released atomic.Bool
	go func() {
		time.Sleep(5 * time.Millisecond)
		released.Store(true)
	}()
	start := time.Now()
	for attempt := 0; !released.Load(); attempt++ {
		wk.Backoff(BackoffRetry, attempt)
	}
	wall := time.Since(start)
	if virt := time.Duration(wk.Clk.Now()); virt > wall+time.Millisecond {
		t.Errorf("waiter charged itself %v of backoff in %v of host time (%d backoffs)", virt, wall, wk.Stats.Backoffs)
	}
}

// TestBackoffDoesNotStallSiblings is the tentpole's claim in one worker: a
// context that backs off 100us while three siblings run doorbell transactions
// is parked until the clock has passed its deadline, so the siblings' work
// covers the whole delay — the worker finishes at the same virtual instant as
// when that context does nothing at all. What the backoff itself stalls is at
// most idle time a sibling's doorbell wait would have been charged anyway (its
// deadline happened to be the next instant on a worker with nothing to run):
// under one fabric round-trip, against 100us asked.
func TestBackoffDoesNotStallSiblings(t *testing.T) {
	const d = 100 * time.Microsecond
	run := func(backoff bool) (int64, Stats) {
		wk := backoffWorld(t, 48, d).engines[0].NewWorker(0)
		wk.RunCoroutines(4, func(slot int) {
			if slot == 0 {
				if backoff {
					wk.Backoff(BackoffRetry, 0)
				}
				return
			}
			for i := 0; i < 20; i++ {
				if err := runEightRemoteTransferAt(wk, uint64(12*slot)); err != nil {
					t.Error(err)
					return
				}
			}
		})
		return wk.Clk.Now(), wk.Stats
	}
	work, _ := run(false)
	if work <= int64(d) {
		t.Fatalf("setup: siblings' work is %dns, must exceed the %v backoff", work, d)
	}
	got, st := run(true)
	if got != work {
		t.Errorf("worker clock ends at %dns with the backoff, %dns without: the sleeper's delay reached its siblings", got, work)
	}
	if st.Backoffs != 1 || st.BackoffNanos != uint64(d) || st.BackoffStallNanos > 2000 {
		t.Errorf("backoffs %d asked %dns stalled %dns, want 1 / %d / under 2000", st.Backoffs, st.BackoffNanos, st.BackoffStallNanos, d)
	}
}

// TestAllBackedOffJumpsToEarliestDeadline: when every context is asleep the
// worker is idle, and the dispatcher resumes the context with the earliest
// deadline, whose WaitUntil jumps the clock there. Four overlapping 100us
// backoffs started 1us apart end 1us apart — not 100us apart, the sum.
func TestAllBackedOffJumpsToEarliestDeadline(t *testing.T) {
	const d = 100 * time.Microsecond
	wk := backoffWorld(t, 1, d).engines[0].NewWorker(0)
	var woke [4]int64
	wk.RunCoroutines(4, func(slot int) {
		wk.Clk.Advance(time.Microsecond) // this context's own work before it aborts
		wk.Backoff(BackoffRetry, 0)
		woke[slot] = wk.Clk.Now()
	})
	for slot, at := range woke {
		// Slot i parked at (i+1)us, so its deadline is (i+1)us + d.
		if want := int64(slot+1)*int64(time.Microsecond) + int64(d); at != want {
			t.Errorf("slot %d resumed at %dns, want its own deadline %dns", slot, at, want)
		}
	}
	// The first sleeper waits out what is left of its delay (d less the 3us
	// its siblings worked), each later one only the 1us to its own deadline.
	if got, want := wk.Stats.BackoffStallNanos, uint64(d); got != want {
		t.Errorf("stalled %dns over four backoffs, want %dns", got, want)
	}
	if got, want := wk.Stats.BackoffNanos, uint64(4*d); got != want {
		t.Errorf("asked %dns over four backoffs, want %dns", got, want)
	}
}

// queueSpans returns the trace's hot-key queue-wait spans after checking each
// directly follows the yield span of the gated park that waited for it.
func queueSpans(t *testing.T, evs []obs.Event) (spans int) {
	t.Helper()
	for i, e := range evs {
		if e.Kind != obs.EvPhase || e.Detail != StageQueue {
			continue
		}
		spans++
		if i == 0 || evs[i-1].Kind != obs.EvYield || evs[i-1].Start != e.Start || evs[i-1].End != e.End {
			t.Errorf("queue span %d [%d,%d] is not preceded by its park's yield span", i, e.Start, e.End)
		}
	}
	return spans
}

func countKind(evs []obs.Event, k obs.Kind) (n int) {
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestGatedWaitersBehindSleepingHolder is the livelock guard: two contexts
// queue on a gate whose holder is a sibling asleep in a backoff. Nothing is
// due and no poll can succeed, so after the waiters have had their polls the
// dispatcher must declare the worker idle and run the sleeper, which releases.
// The waiters' clocks grew by the holder's sleep, so both record a queue wait:
// one yield span per wait, directly before its queue span.
func TestGatedWaitersBehindSleepingHolder(t *testing.T) {
	const d = 100 * time.Microsecond
	wk := backoffWorld(t, 1, d).engines[0].NewWorker(0)
	rec := wk.EnableTrace(0)
	g, hk := &keyGate{}, HotKey{Table: tblAcct, Key: 0}
	wk.RunCoroutines(3, func(slot int) {
		if slot == 0 {
			if !g.tryEnter(g.enqueue()) {
				t.Error("setup: idle gate did not admit the holder")
			}
			wk.Backoff(BackoffRetry, 0)
			g.release()
			return
		}
		if ok, qerr := wk.acquireGate(g, hk); !ok {
			t.Errorf("slot %d not admitted: %v", slot, qerr)
			return
		}
		g.release()
	})
	st := wk.Stats
	if wk.Clk.Now() != int64(d) {
		t.Errorf("worker clock %dns, want the holder's %v sleep and nothing else", wk.Clk.Now(), d)
	}
	if st.GateAdmissions != 2 || st.QueueWaits != 2 || st.QueueWaitNanos != 2*uint64(d) {
		t.Errorf("admissions %d, queue waits %d totalling %dns; want 2, 2, %d",
			st.GateAdmissions, st.QueueWaits, st.QueueWaitNanos, 2*uint64(d))
	}
	evs := rec.Events()
	if got := queueSpans(t, evs); got != 2 {
		t.Errorf("%d queue spans, want 2", got)
	}
	if got := countKind(evs, obs.EvYield); got != 3 {
		t.Errorf("%d yield spans, want 3: the holder's backoff and one per gate wait, not one per poll", got)
	}
}

// TestGateTimeoutUnderScheduler: a gated park whose ticket is never served
// runs out of polls on the dispatcher, and the context comes back with the
// keyed StageQueue abort; its abandoned ticket is skipped once the holder
// releases. gateMaxPolls failed polls cost no virtual time and one yield span.
func TestGateTimeoutUnderScheduler(t *testing.T) {
	wk := backoffWorld(t, 1, time.Microsecond).engines[0].NewWorker(0)
	rec := wk.EnableTrace(0)
	g, hk := &keyGate{}, HotKey{Table: tblAcct, Key: 7}
	if !g.tryEnter(g.enqueue()) { // held from outside the worker for the whole wait
		t.Fatal("setup: idle gate did not admit the holder")
	}
	var qerr *Error
	wk.RunCoroutines(2, func(slot int) {
		if slot == 0 {
			_, qerr = wk.acquireGate(g, hk)
		}
	})
	if qerr == nil || qerr.Stage != StageQueue || qerr.Reason != AbortLocked ||
		!qerr.HasKey || qerr.Table != hk.Table || qerr.Key != hk.Key {
		t.Fatalf("timed-out admission returned %+v, want a StageQueue abort keyed %v", qerr, hk)
	}
	if wk.Clk.Now() != 0 || wk.Stats.GateAdmissions != 0 {
		t.Errorf("clock %dns, admissions %d after a timed-out wait; failed polls must cost nothing", wk.Clk.Now(), wk.Stats.GateAdmissions)
	}
	if got := countKind(rec.Events(), obs.EvYield); got != 1 {
		t.Errorf("%d yield spans for one gate wait, want 1", got)
	}
	next := g.enqueue()
	g.release()
	if !g.tryEnter(next) {
		t.Error("the abandoned ticket was not skipped")
	}
}

// TestIdleJumpWaitsForSlowerWorker: a worker whose contexts are all backed off
// does not jump its clock past a worker on the same cluster that is still
// working its way there. It publishes the instant as its horizon and sleeps;
// the slow worker's own dispatcher wakes it once it has caught up, and the
// wait costs the sleeper no virtual time.
func TestIdleJumpWaitsForSlowerWorker(t *testing.T) {
	const d = time.Millisecond // several times idleSlack
	w := backoffWorld(t, 1, d)
	fast, slow := w.engines[0].NewWorker(0), w.engines[1].NewWorker(0)
	// Both workers are on the Frontier before the fast one backs off: a fast
	// worker that found itself alone there would rightly jump.
	started, joined := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		fast.RunCoroutines(2, func(slot int) {
			if slot == 0 {
				close(started)
				<-joined
			}
			fast.Backoff(BackoffRetry, 0)
		})
	}()
	go func() {
		defer wg.Done()
		slow.RunCoroutines(2, func(slot int) {
			if slot != 0 {
				return
			}
			close(joined)
			<-started
			// Until the fast worker has said it is idle until d ...
			for i := 0; slow.sched.run.Behind(int64(d)) != nil; i++ {
				if i > 1<<22 {
					t.Error("the fast worker never published its horizon")
					return
				}
				sim.Spin(0)
			}
			// ... and from then on, while this one stays at 0, its clock must not move.
			for i := 0; i < 200; i++ {
				if at := fast.Clk.Now(); at != 0 {
					t.Errorf("fast worker's clock at %dns while the slow one is still at 0", at)
					return
				}
				sim.Spin(0)
			}
			slow.Clk.Advance(5 * d)
			slow.yield(slow.Clk.Now(), false) // a dispatch: where followers are woken
		})
	}()
	wg.Wait()
	if got := fast.Clk.Now(); got != int64(d) {
		t.Errorf("fast worker ends at %dns, want its %v backoff and nothing for the wait", got, d)
	}
	if st := fast.Stats; st.IdleWaits == 0 || st.IdleGiveUps != 0 {
		t.Errorf("fast worker: %d idle waits, %d gave up; want at least one wait and none given up", st.IdleWaits, st.IdleGiveUps)
	}
	if st := slow.Stats; st.IdleWaits != 0 {
		t.Errorf("the slowest worker waited %d times; it must never wait", st.IdleWaits)
	}
}

// TestIdleWorkersDoNotWaitOnEachOther: two workers with nothing but backoffs
// parked each stand at their horizon for the other, so the nearer one jumps
// and neither runs out of patience.
func TestIdleWorkersDoNotWaitOnEachOther(t *testing.T) {
	w := backoffWorld(t, 1, time.Millisecond)
	w.engines[1].Costs.Backoff = 2 * time.Millisecond
	var wg sync.WaitGroup
	wks := []*Worker{w.engines[0].NewWorker(0), w.engines[1].NewWorker(0)}
	for _, wk := range wks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.RunCoroutines(2, func(int) { wk.Backoff(BackoffRetry, 0) })
		}()
	}
	wg.Wait()
	for i, wk := range wks {
		if want := int64(i+1) * int64(time.Millisecond); wk.Clk.Now() != want {
			t.Errorf("worker %d ends at %dns, want %dns", i, wk.Clk.Now(), want)
		}
		if wk.Stats.IdleGiveUps != 0 {
			t.Errorf("worker %d ran out of patience %d times waiting for an idle peer", i, wk.Stats.IdleGiveUps)
		}
	}
}

// readRemote is a read-only transaction of one remote record (key 1 lives on
// node 1 of a 3-node world).
func readRemote(wk *Worker) error {
	return wk.Run(func(tx *Txn) error {
		_, err := tx.Read(tblAcct, 1)
		return err
	})
}

// TestCompletionServedAtBoundary: context 0 runs one remote-read transaction
// while contexts 1 and 2 loop over local-only transactions, polling after
// each. Each of the read's completions is served at the first boundary after
// it arrives, ahead of the sibling parked at an earlier boundary, so its
// latency is at most its own round trip (the same transaction alone on a
// worker) plus one local transaction per doorbell, not a whole loop. The
// boundary parks are no transaction's parks: every yield is one of the read's
// doorbells.
func TestCompletionServedAtBoundary(t *testing.T) {
	const loops = 20
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 7, 1000)
	alone, solo := w.engines[0].NewWorker(1), int64(0)
	for i := 0; i < 2; i++ { // the second read finds the record's location known, as context 0's will
		s := alone.Clk.Now()
		if err := readRemote(alone); err != nil {
			t.Fatal(err)
		}
		solo = alone.Clk.Now() - s
	}
	wk := w.engines[0].NewWorker(0)
	rec := wk.EnableTrace(0)
	var lat, longest int64
	wk.RunCoroutines(3, func(slot int) {
		if slot == 0 {
			s := wk.Clk.Now()
			if err := readRemote(wk); err != nil {
				t.Error(err)
			}
			lat = wk.Clk.Now() - s
			return
		}
		for i := 0; i < loops; i++ {
			s := wk.Clk.Now()
			if err := wk.Run(func(tx *Txn) error { return tx.Write(tblAcct, uint64(3*slot), encBal(uint64(i))) }); err != nil {
				t.Error(err)
				return
			}
			longest = max(longest, wk.Clk.Now()-s)
			wk.Poll()
		}
	})
	evs := rec.Events()
	doorbells := int64(countKind(evs, obs.EvDoorbell))
	if loops*longest <= solo+doorbells*longest {
		t.Fatalf("setup: %d local transactions of at most %dns do not outlast a %dns read of %d doorbells", loops, longest, solo, doorbells)
	}
	if lat > solo+doorbells*longest {
		t.Errorf("remote read took %dns, want at most its %dns alone plus one local transaction (%dns) per doorbell (%d)", lat, solo, longest, doorbells)
	}
	if st := wk.Stats; st.Committed != 2*loops+1 || st.CoYields != uint64(doorbells) || countKind(evs, obs.EvYield) != int(doorbells) {
		t.Errorf("committed %d, yields %d counted and %d traced; want %d and one per doorbell (%d): a boundary park is none",
			st.Committed, st.CoYields, countKind(evs, obs.EvYield), 2*loops+1, doorbells)
	}
}

// TestCompletionServedMidTransaction: context 0 runs one remote-read
// transaction while context 1 runs a single transaction of 200 local reads,
// with no boundary in between. Each local read polls first, so each of the
// remote read's completions is served within one local read of its arrival:
// its latency is at most its own alone plus one local read per doorbell, not
// the whole local transaction. Every serving preempts context 1 with a
// traced park that counts as no doorbell's yield.
func TestCompletionServedMidTransaction(t *testing.T) {
	const reads = 200
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 3*reads, 1000)
	local := func(tx *Txn) error {
		for i := uint64(0); i < reads; i++ {
			if _, err := tx.Read(tblAcct, 3*i); err != nil { // machine 0's keys
				return err
			}
		}
		return nil
	}
	alone, solo := w.engines[0].NewWorker(1), int64(0)
	for i := 0; i < 2; i++ { // the second read finds the record's location known, as context 0's will
		s := alone.Clk.Now()
		if err := readRemote(alone); err != nil {
			t.Fatal(err)
		}
		solo = alone.Clk.Now() - s
	}
	s := alone.Clk.Now()
	if err := alone.Run(local); err != nil {
		t.Fatal(err)
	}
	whole := alone.Clk.Now() - s
	perRead := whole / reads // an over-estimate: it shares out the begin and the commit
	wk := w.engines[0].NewWorker(0)
	rec := wk.EnableTrace(0)
	var lat int64
	wk.RunCoroutines(2, func(slot int) {
		if slot == 0 {
			s := wk.Clk.Now()
			if err := readRemote(wk); err != nil {
				t.Error(err)
			}
			lat = wk.Clk.Now() - s
			return
		}
		if err := wk.Run(local); err != nil {
			t.Error(err)
		}
	})
	evs := rec.Events()
	doorbells := int64(countKind(evs, obs.EvDoorbell))
	bound := solo + doorbells*perRead
	if whole <= 2*bound {
		t.Fatalf("setup: a %dns local transaction does not outlast a %dns read of %d doorbells", whole, solo, doorbells)
	}
	if lat > bound {
		t.Errorf("remote read took %dns, want at most its %dns alone plus one local read (%dns) per doorbell (%d)", lat, solo, perRead, doorbells)
	}
	if st := wk.Stats; st.Committed != 2 || st.CoYields != uint64(doorbells) || countKind(evs, obs.EvYield) != int(2*doorbells) {
		t.Errorf("committed %d, yields %d counted and %d traced; want 2, one per doorbell (%d) and one more per preemption",
			st.Committed, st.CoYields, countKind(evs, obs.EvYield), doorbells)
	}
}

// TestPreemptedResumesFirst: a context preempted by a mid-transaction poll
// goes back right behind the context it let run, as a due completion. When
// that context parks, the preempted one resumes ahead of a context parked at
// a boundary and of a due backoff, both earlier in park order; when that
// context polls instead, the preempted one is served.
func TestPreemptedResumesFirst(t *testing.T) {
	const d = time.Microsecond
	for _, handBack := range []string{"park", "poll"} {
		wk := backoffWorld(t, 1, d).engines[0].NewWorker(0)
		var order []string
		wk.RunCoroutines(4, func(slot int) {
			switch slot {
			case 0: // served at a boundary, then by the preemption
				wk.yield(int64(d), true)
				wk.yield(int64(2*d), true)
				order = append(order, "served")
				if handBack == "park" {
					wk.yield(wk.Clk.Now(), false)
				} else {
					wk.Poll()
				}
				order = append(order, "served again")
			case 1:
				wk.Backoff(BackoffRetry, 0) // due at d
				order = append(order, "backoff")
			case 2:
				wk.Clk.Advance(d)
				wk.Poll() // serves slot 0's first doorbell, parks at the back
				order = append(order, "boundary")
			case 3:
				wk.Clk.Advance(2 * d)
				wk.poll(true) // slot 0's second doorbell is due
				order = append(order, "preempted")
			}
		})
		want := []string{"served", "preempted", "backoff", "boundary", "served again"}
		if !slices.Equal(order, want) {
			t.Errorf("%s: resumed in order %v, want %v", handBack, order, want)
		}
	}
}

// TestBackoffNotServedAtBoundary: a backoff's deadline is a lower bound on a
// retry, not a completion, so due backoffs keep their places in park order and
// Poll returns without a switch.
func TestBackoffNotServedAtBoundary(t *testing.T) {
	const d = time.Microsecond
	wk := backoffWorld(t, 1, d).engines[0].NewWorker(0)
	woke := [2]int64{-1, -1}
	wk.RunCoroutines(3, func(slot int) {
		if slot < 2 {
			wk.Backoff(BackoffRetry, 0)
			woke[slot] = wk.Clk.Now()
			return
		}
		wk.Clk.Advance(2 * d)
		order := slices.Clone(wk.sched.parked)
		wk.Poll()
		if woke != [2]int64{-1, -1} || !slices.Equal(order, wk.sched.parked) || wk.Clk.Now() != int64(2*d) {
			t.Errorf("Poll served a due backoff: woke at %v, clock %dns", woke, wk.Clk.Now())
		}
	})
	if woke != [2]int64{int64(2 * d), int64(2 * d)} {
		t.Errorf("backed-off contexts resumed at %v, want %dns once their sibling finished", woke, 2*d)
	}
}

// TestPollNothingDue: with no completion due — a sibling's doorbell still in
// flight, or no scheduler at all — Poll leaves the clock, park order, every
// counter and the trace as they were.
func TestPollNothingDue(t *testing.T) {
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 4, 1000)
	wk := w.engines[0].NewWorker(0)
	rec := wk.EnableTrace(0)
	check := func(where string) {
		clk, st, evs := wk.Clk.Now(), wk.Stats, len(rec.Events())
		var order []*coro
		if wk.sched != nil {
			order = slices.Clone(wk.sched.parked)
		}
		wk.Poll()
		if wk.Clk.Now() != clk || !reflect.DeepEqual(wk.Stats, st) || len(rec.Events()) != evs {
			t.Errorf("%s: Poll moved the clock %d→%d, the counters or the trace", where, clk, wk.Clk.Now())
		}
		if wk.sched != nil && !slices.Equal(order, wk.sched.parked) {
			t.Errorf("%s: Poll reordered the parked contexts", where)
		}
	}
	check("no scheduler")
	wk.RunCoroutines(2, func(slot int) {
		if slot == 0 {
			if err := readRemote(wk); err != nil {
				t.Error(err)
			}
			return
		}
		check("doorbell in flight")
	})
}
