package txn

import (
	"testing"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/obs"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

// requireNoAlloc pins fn to zero allocations per call.
func requireNoAlloc(t *testing.T, name string, fn func()) {
	t.Helper()
	requireAllocs(t, name, 0, fn)
}

// requireAllocs pins fn to want allocations per call.
func requireAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(200, fn); allocs != want {
		t.Errorf("%s allocates %v times per call, want %v", name, allocs, want)
	}
}

// TestHotpathAllocFree drives the per-event recording and clock primitives
// and the synchronous verbs and checks AllocsPerRun == 0: each runs once or
// more per transaction, so an allocation here is one on every commit. An HTM
// region, which a transaction runs dozens of, allocates nothing once handed
// back.
func TestHotpathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}

	var h obs.Histogram
	requireNoAlloc(t, "obs.Histogram.Record", func() { h.Record(1234) })
	requireNoAlloc(t, "obs.Histogram.LiveRecord", func() { h.LiveRecord(1234) })

	th := obs.NewTypedHist("payment", "neworder")
	requireNoAlloc(t, "obs.TypedHist.Record", func() { th.Record(1, 99) })
	requireNoAlloc(t, "obs.TypedHist.LiveRecord", func() { th.LiveRecord(0, 99) })

	var am obs.AbortMatrix
	requireNoAlloc(t, "obs.AbortMatrix.Record", func() { am.Record(2, 3, 1) })
	requireNoAlloc(t, "obs.AbortMatrix.LiveRecord", func() { am.LiveRecord(2, 3, 1) })

	requireNoAlloc(t, "obs.BucketIndex", func() { _ = obs.BucketIndex(1 << 40) })

	var clk sim.Clock
	requireNoAlloc(t, "sim.Clock.Advance", func() { clk.Advance(time.Microsecond) })
	requireNoAlloc(t, "sim.Clock.AdvanceTo", func() { clk.AdvanceTo(clk.Now() + 10) })
	requireNoAlloc(t, "sim.Clock.WaitUntil", func() { clk.WaitUntil(clk.Now() + 10) })

	var res sim.Resource
	now := int64(0)
	requireNoAlloc(t, "sim.Resource.Use", func() {
		now = res.Use(now, 100*time.Nanosecond)
	})

	// A synchronous verb is a Pending on the stack, and it must leave its
	// caller's buffer on the stack too: remoteLookup reads hash buckets and
	// the oplog writes its skip marker from stack arrays.
	net := rdma.NewNetwork(2, rdma.Config{NICBytesPerSec: rdma.NICBandwidth56G})
	for i := 0; i < net.Nodes(); i++ {
		net.Attach(rdma.NodeID(i), htm.NewEngine(make([]byte, 4096), htm.Config{}))
	}
	qp := net.NewQP(0, 1, &clk)
	requireNoAlloc(t, "rdma.QP synchronous verbs", func() {
		var img [64]byte
		_, _ = qp.Read(0, len(img), img[:])
		_ = qp.Write(64, img[:])
		_, _ = qp.Read64(128)
		_ = qp.Write64(128, 1)
		_, _, _ = qp.CAS(128, 1, 0)
	})

	// An HTM region's footprint lives in its Txn, the line registry keeps its
	// entries and Begin reuses a released Txn, so a region that fits the
	// Txn's inline footprint allocates nothing.
	eng := htm.NewEngine(make([]byte, 4096), htm.Config{})
	var span [3 * 64]byte
	requireNoAlloc(t, "htm region", func() {
		tx := eng.Begin()
		_, _ = tx.Load64(0)
		_, _ = tx.Load64(256)
		_, _ = tx.Read(64, len(span), span[:])
		_ = tx.Store64(0, 1)
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
		tx.Release()
	})

	w := newWorld(t, 1, 1, htm.Config{})
	w.load(t, 1, 100)
	ht := w.c.Machines[0].Store.Table(tblAcct).Hash()
	requireNoAlloc(t, "memstore.HashTable Insert+Delete", func() {
		if err := ht.Insert(1<<20, 4096); err != nil {
			t.Error(err)
		}
		if _, err := ht.Delete(1 << 20); err != nil {
			t.Error(err)
		}
	})

	// A local read costs the value the read set keeps and the copy Read
	// returns: the record snapshot is the worker's scratch and the HTM region
	// is handed back.
	tx := w.engines[0].NewWorker(0).Begin()
	requireAllocs(t, "local Txn.Read", 2, func() {
		tx.rs = tx.rs[:0]
		if _, err := tx.Read(tblAcct, 0); err != nil {
			t.Error(err)
		}
	})

	// A read-only commit whose remote records rode behind its last READ
	// checks its local records from memory into a stack header and rings no
	// doorbell, so it builds no batch.
	w3 := newWorld(t, 3, 1, htm.Config{})
	w3.load(t, 6, 100)
	ro := w3.engines[0].NewWorker(0).BeginReadOnly()
	for _, k := range []uint64{0, 1, 4} {
		if _, err := ro.Read(tblAcct, k); err != nil {
			t.Fatal(err)
		}
	}
	requireNoAlloc(t, "read-only commit, remote records carried", func() {
		if err := ro.Commit(); err != nil {
			t.Error(err)
		}
	})
}

// gateHandoff is one admission through hot-key gate g, held across a park so
// that the sibling contexts queue up behind it before it releases. The holder
// does 1ns of virtual work: contexts that never move the clock would starve a
// sibling parked on a future instant.
func gateHandoff(wk *Worker, g *keyGate) bool {
	ok, _ := wk.acquireGate(g, HotKey{Table: tblAcct})
	if ok {
		wk.Clk.Advance(time.Nanosecond)
		wk.yield(wk.Clk.Now())
		g.release()
	}
	return ok
}

// TestCoroutineHandoffAllocFree pins the steady-state park/dispatch cycle:
// once the contexts exist, parking and resuming them must not allocate —
// neither in Worker.park nor in the dispatcher (the parked list is sized once;
// pop-by-reslice used to reallocate the run queue on every handoff). One
// cycle takes every kind of park: a gated wait behind three queued siblings,
// a timed park that is due, one that is not, and a doorbell awaited with the
// gate held — every sibling is queued behind it, so the dispatch pass finds
// nothing due and asks whether the idle jump would pass another worker. The
// doorbell's own Pending and Completion are the only allocations allowed.
func TestCoroutineHandoffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	w := newWorld(t, 1, 1, htm.Config{})
	wk := w.engines[0].NewWorker(0)
	g := &keyGate{}
	b := wk.NewBatch()
	doorbell := func() *rdma.Completion {
		b.PostRead64(wk.QP(0), 0)
		return b.ExecuteAsync()
	}
	own := testing.AllocsPerRun(200, func() { _ = doorbell().Wait() })
	done := false
	var allocs float64
	wk.RunCoroutines(4, func(slot int) {
		if slot == 0 {
			allocs = testing.AllocsPerRun(200, func() {
				if !gateHandoff(wk, g) {
					t.Error("gate admission timed out")
				}
				wk.yield(wk.Clk.Now() + 2)
				if ok, _ := wk.acquireGate(g, HotKey{Table: tblAcct}); !ok {
					t.Error("gate admission timed out")
				}
				if err := wk.await(doorbell()); err != nil {
					t.Error(err)
				}
				g.release()
				// The horizon a dispatcher publishes when only gated contexts
				// are parked, and its withdrawal.
				wk.sched.idleUntil(sim.Forever)
				wk.sched.busy()
				// The HTM bracket park asserts no region spans.
				wk.htmBegin()
				wk.htmEnd()
			})
			done = true
			return
		}
		for !done {
			if !gateHandoff(wk, g) {
				t.Error("gate admission timed out")
				return
			}
		}
	})
	if allocs != own {
		t.Errorf("park/dispatch allocates %v times per cycle besides the doorbell's %v, want 0", allocs-own, own)
	}
}

// BenchmarkGateHandoff is the host cost of one gated admission with four
// contexts of one worker taking turns on one hot key: every admission waits
// out three queued siblings, each of whose failed polls used to be a resume
// and a re-park of the waiter's goroutine and is now a turn the dispatcher
// takes itself.
func BenchmarkGateHandoff(b *testing.B) {
	w := newWorld(b, 1, 1, htm.Config{})
	wk := w.engines[0].NewWorker(0)
	g := &keyGate{}
	left := b.N
	b.ReportAllocs()
	b.ResetTimer()
	wk.RunCoroutines(4, func(int) {
		for left > 0 {
			left--
			if !gateHandoff(wk, g) {
				b.Error("gate admission timed out")
				return
			}
		}
	})
}
