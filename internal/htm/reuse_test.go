package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtmr/internal/sim"
)

// Begin reuses the Txn of a region handed back with Release. An aborter
// names the region it saw by its status word, generation included, so a
// late abort of an ended region never reaches the region that reuses its Txn.

// reusedRegion runs a region that reads line 1, records the status word an
// aborter would have seen while it was registered, ends and releases it, and
// begins regions until one reuses its Txn (Release's pool may drop a Txn, and
// does at random under the race detector).
func reusedRegion(t *testing.T, e *Engine) (tx *Txn, stale uint64) {
	t.Helper()
	for try := 0; try < 100; try++ {
		old := e.Begin()
		if _, err := old.Load64(lineOff(1)); err != nil {
			t.Fatal(err)
		}
		stale = old.status.Load()
		if err := old.Commit(); err != nil {
			t.Fatal(err)
		}
		old.Release()
		if tx = e.Begin(); tx == old {
			return tx, stale
		}
		_ = tx.Commit()
		tx.Release()
	}
	t.Skip("Begin never reused a released Txn")
	return nil, 0
}

// TestStaleAbortSparesReusedRegion: an extAbort carrying the word of an ended
// region leaves the region now running on that Txn active and registered.
func TestStaleAbortSparesReusedRegion(t *testing.T) {
	e := newTestEngine(1<<16, Config{})
	tx, stale := reusedRegion(t, e)
	if _, err := tx.Load64(lineOff(1)); err != nil {
		t.Fatal(err)
	}
	tx.extAbort(stale, CauseConflict)
	if !tx.Active() {
		t.Fatal("a stale abort ended the region reusing the Txn")
	}
	if w, rs := registration(e, 1); w != nil || len(rs) != 1 || rs[0] != tx {
		t.Fatalf("line 1 after the stale abort: writer %p readers %v, want only the reused region", w, rs)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("reused region: %v", err)
	}
	if n := liveLines(e); n != 0 {
		t.Fatalf("%d registry entries after the commit, want 0", n)
	}
}

// TestReleaseTwiceHandsOutOneTxn: handing a region back twice, before or
// after a new region reuses it, and handing back one still running never give
// one Txn to two regions.
func TestReleaseTwiceHandsOutOneTxn(t *testing.T) {
	e := newTestEngine(1<<16, Config{})
	for i := 0; i < 20; i++ {
		r := e.Begin()
		_ = r.Abort(1)
		r.Release()
		r.Release()
		a, b := e.Begin(), e.Begin()
		if a == b {
			t.Fatal("a region released twice went to two new regions")
		}
		a.Release() // still running: not handed back
		c := e.Begin()
		if c == a {
			t.Fatal("a running region was handed to a new one")
		}
		for _, x := range []*Txn{a, b, c} {
			_ = x.Commit()
			x.Release()
		}
		// The owner of an ended region releases it again after a new region
		// took its Txn: the new region is running and stays its own.
		d := e.Begin()
		_ = d.Commit()
		d.Release()
		f := e.Begin()
		d.Release()
		if g := e.Begin(); g == f {
			t.Fatal("a stale Release handed out a running region")
		}
	}
}

// TestReuseUnderConflictsCountsEveryIncrement: goroutines increment a counter
// in conflicting regions, releasing every one, while others write the
// regions' lines non-transactionally and a late aborter aborts, with
// CauseSpurious, regions it saw registered a moment earlier.
// Every committed increment must be counted, and every region the late
// aborter ended must be one it saw: an abort that crossed into the next
// region on a reused Txn fails the test, and a cleanup that did strands the
// registry, which fails it on a deadline rather than hanging.
func TestReuseUnderConflictsCountsEveryIncrement(t *testing.T) {
	e := newTestEngine(1<<16, Config{})
	const (
		workers = 4
		each    = 500
		counter = 0
	)
	var (
		committed atomic.Uint64
		mu        sync.Mutex
		region    = map[*Txn]uint64{} // each Txn's current region serial
		seen      = map[*Txn]uint64{} // the latest region of each the late aborter saw
		serial    uint64
	)
	stop := make(chan struct{})
	var others, incs sync.WaitGroup
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	for i := 0; i < 2; i++ {
		others.Add(1)
		go func(i int) {
			defer others.Done()
			for n := uint64(0); running(); n++ {
				// Other bytes of the counter's line, and of a line the
				// regions read.
				e.Store64NonTx(lineOff(0)+8+uint64(i)*8, n)
				e.WriteNonTx(lineOff(2)+uint64(i), []byte{byte(n)})
				runtime.Gosched()
			}
		}(i)
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for running() {
			var buf [8]victim
			s := e.shardFor(2)
			s.mu.Lock()
			vs := buf[:0]
			if i := s.find(2); i >= 0 {
				vs, _ = s.lines[i].conflicts(nil, true, vs)
			}
			mu.Lock()
			for _, v := range vs {
				seen[v.t] = region[v.t]
			}
			mu.Unlock()
			s.mu.Unlock()
			runtime.Gosched()
			for _, v := range vs {
				v.t.extAbort(v.w, CauseSpurious)
			}
		}
	}()
	for g := 0; g < workers; g++ {
		incs.Add(1)
		go func(g int) {
			defer incs.Done()
			rng := sim.NewRand(uint64(g))
			for i := 0; i < each; i++ {
				for attempt := 0; ; attempt++ {
					tx := e.Begin()
					mu.Lock()
					serial++
					my := serial
					region[tx] = my
					mu.Unlock()
					_, err := tx.Load64(lineOff(2))
					if err == nil && attempt == 0 {
						runtime.Gosched() // on one CPU too, others run inside the region
					}
					if err == nil {
						_, err = tx.Add64(counter, 1)
					}
					if err == nil {
						err = tx.Commit()
					}
					if ae, ok := err.(*AbortError); ok && ae.Cause == CauseSpurious {
						mu.Lock()
						if seen[tx] != my {
							t.Errorf("region %d was aborted late by an aborter that saw region %d", my, seen[tx])
						}
						mu.Unlock()
					}
					tx.Release()
					if err == nil {
						committed.Add(1)
						break
					}
					backoff(rng, attempt)
				}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() { incs.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("increments stuck after 30 s: %d of %d committed", committed.Load(), workers*each)
	}
	close(stop)
	others.Wait()
	if got := e.Load64NonTx(counter); got != committed.Load() || got != workers*each {
		t.Fatalf("counter %d, committed increments %d, want %d", got, committed.Load(), workers*each)
	}
	if n := liveLines(e); n != 0 {
		t.Fatalf("%d registry entries at the end, want 0", n)
	}
}
