package txn

import (
	"encoding/binary"
	"testing"
	"time"
	"unsafe"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
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

	th := obs.NewTypedHist("payment", "neworder")
	requireNoAlloc(t, "obs.TypedHist.Record", func() { th.Record(1, 99) })

	var am obs.AbortMatrix
	requireNoAlloc(t, "obs.AbortMatrix.Record", func() { am.Record(2, 3, 1) })

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
	// An aborted region's error is one of htm's, not a new one.
	requireNoAlloc(t, "aborted htm region", func() {
		tx := eng.Begin()
		_, _ = tx.Load64(0)
		if err := tx.Abort(7); err == nil {
			t.Error("explicit abort returned nil")
		}
		tx.Release()
	})

	w := newWorld(t, 1, 1, htm.Config{})
	w.load(t, 20, 100)
	ht := w.c.Machines[0].Store.Table(tblAcct).Hash()
	requireNoAlloc(t, "memstore.HashTable Insert+Delete", func() {
		if err := ht.Insert(1<<20, 4096); err != nil {
			t.Error(err)
		}
		if _, err := ht.Delete(1 << 20); err != nil {
			t.Error(err)
		}
	})

	// A record image inserted off the direct load path is built on the stack.
	tbl := w.c.Machines[0].Store.Table(tblAcct)
	val := encBal(7)
	requireNoAlloc(t, "memstore.Table InsertWithSeq+Delete", func() {
		if _, err := tbl.InsertWithSeq(1<<20, val, 1); err != nil {
			t.Error(err)
		}
		if err := tbl.Delete(1 << 20); err != nil {
			t.Error(err)
		}
	})

	// A local read's record snapshot is its attempt's scratch and its HTM
	// region is handed back; the value the read set keeps and the copy Read
	// returns are carved from the transaction's slab, whose chunks double, so
	// a read allocates nothing once amortized.
	tx := w.engines[0].NewWorker(0).Begin()
	requireNoAlloc(t, "local Txn.Read", func() {
		tx.rs = tx.rs[:0]
		if _, err := tx.Read(tblAcct, 0); err != nil {
			t.Error(err)
		}
	})

	// A NewOrder-shaped execution — 20 reads, 10 writes of records it read
	// and 13 inserts — allocates nothing but the slab's chunks, its sets
	// reused here: 40 carves of 16 bytes for the reads, none for the writes
	// (each takes its record's read-set copy) and 13 for the inserts, 848
	// bytes in chunks of 16, 16, 32, 64, 128, 256 and 512.
	requireAllocs(t, "NewOrder-shaped Txn execution", 7, func() {
		tx.rs, tx.ws, tx.slab, tx.carved = tx.rs[:0], tx.ws[:0], nil, 0
		for k := uint64(0); k < 20; k++ {
			if _, err := tx.Read(tblAcct, k); err != nil {
				t.Error(err)
			}
		}
		for k := uint64(0); k < 10; k++ {
			if err := tx.Write(tblAcct, k, val); err != nil {
				t.Error(err)
			}
		}
		for k := uint64(0); k < 13; k++ {
			if err := tx.Insert(tblAcct, 1000+k, val); err != nil {
				t.Error(err)
			}
		}
	})

	// Begin allocates the Txn itself, whose fields pack into 208 bytes, one
	// allocation size class.
	if size := unsafe.Sizeof(Txn{}); size > 208 {
		t.Errorf("Txn is %d bytes, want at most 208", size)
	}

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

	// A doorbell allocates nothing once warm: its slots and the buffers its
	// READs land in are the batch's, handed back by Reset when the attempt
	// ends, and its Completion is a value. So is a lone READ's.
	wk := w3.engines[0].NewWorker(1)
	off1, _ := w3.c.Machines[1].Store.Table(tblAcct).Lookup(1)
	off2, _ := w3.c.Machines[2].Store.Table(tblAcct).Lookup(2)
	b := new(LockRun).Batch(wk)
	requireNoAlloc(t, "warm 5-verb doorbell", func() {
		b.PostCAS(wk.QP(1), off1+memstore.LockOff, 0, 0)
		b.PostRead(wk.QP(1), off1, 24)
		b.PostCAS(wk.QP(2), off2+memstore.LockOff, 0, 0)
		b.PostRead(wk.QP(2), off2, 64)
		b.PostRead64(wk.QP(2), off2+memstore.SeqOff)
		if err := wk.await(b.ExecuteAsync()); err != nil {
			t.Error(err)
		}
		b.Reset()
	})
	requireNoAlloc(t, "ReadAsync+await", func() {
		var hdr [24]byte
		_, c := wk.QP(1).ReadAsync(off1, len(hdr), hdr[:])
		if err := wk.await(c); err != nil {
			t.Error(err)
		}
	})

	// A commit of two remote records, through Run, reuses the Txn the last
	// Run gave back and the attempt scratch it owns: C.1's CASes and the
	// header READs behind them, the write-back WRITEs and the unlock CASes
	// post into its batch, and lockSet's targets and the lock stage's
	// bookkeeping fill its slices. What it allocates is the slab's chunks
	// (4): the chunk each remote record's 64-byte READ opens, and the one
	// each 64-byte write-back image opens.
	commit := func() {
		err := wk.Run(func(tx *Txn) error {
			for _, k := range []uint64{1, 2} {
				v, err := tx.Read(tblAcct, k)
				if err != nil {
					return err
				}
				if err := tx.Write(tblAcct, k, v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	commit()
	requireAllocs(t, "two-remote-record commit", 4, commit)

	// Through Run, the Txn and its sets are the ones the worker's last Run
	// gave back, with their capacity, and Add's deltas take the capacity
	// their write-set slot kept: a warm two-remote-record Run, one record
	// written and one added to, allocates only its slab's chunks (4).
	run := func() {
		err := wk.Run(func(tx *Txn) error {
			v, err := tx.Read(tblAcct, 1)
			if err != nil {
				return err
			}
			if err := tx.Write(tblAcct, 1, v); err != nil {
				return err
			}
			if err := tx.Add(tblAcct, 2, 0, 0); err != nil {
				return err
			}
			_, err = tx.Read(tblAcct, 2)
			return err
		})
		if err != nil {
			t.Error(err)
		}
	}
	run()
	requireAllocs(t, "two-remote-record Run", 4, run)

	// An abort is plain data: it allocates its *Error and formats nothing,
	// since the retry loop drops almost every one unread. abortSink stands
	// for the error's way up to runLoop, which keeps it on the heap.
	requireAllocs(t, "local abort", 1, func() {
		abortSink = tx.abort(AbortHTM, "commit HTM region exhausted retries")
	})
	requireAllocs(t, "keyed abort", 1, func() {
		abortSink = tx.abortOn(1, tblAcct, 7, AbortValidate, "inc changed")
	})
	// roConfirm on a header another machine locked: keyed, with the lock
	// word it saw in Seen.
	rr := &ro.rs[0]
	var locked [24]byte
	binary.LittleEndian.PutUint64(locked[memstore.LockOff:], memstore.LockWord(2))
	binary.LittleEndian.PutUint64(locked[memstore.IncOff:], rr.inc)
	binary.LittleEndian.PutUint64(locked[memstore.SeqOff:], rr.seq)
	requireAllocs(t, "abort with Seen", 1, func() {
		abortSink = ro.roConfirm(rr, locked[:])
	})
	if te, ok := asError(abortSink); !ok || te.Reason != AbortLocked || te.Seen != memstore.LockWord(2) || !te.HasKey {
		t.Errorf("roConfirm on a locked header: %v", abortSink)
	}
	// A READ of a record on a dead machine, its location cached.
	dead := w3.engines[0].NewWorker(2).Begin()
	if _, err := dead.Read(tblAcct, 2); err != nil {
		t.Fatal(err)
	}
	w3.c.Kill(2)
	requireAllocs(t, "dead-node abort", 1, func() {
		dead.rs = dead.rs[:0]
		_, abortSink = dead.Read(tblAcct, 2)
	})
	if te, ok := asError(abortSink); !ok || te.Reason != AbortNodeDead || te.Site != 2 {
		t.Errorf("read on a dead machine: %v", abortSink)
	}
}

// abortSink keeps an abort built in an allocation row on the heap, as the
// way up to runLoop does.
var abortSink error

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
// doorbell's own allocations (its batch, never Reset here, takes a fresh chunk
// of slots now and then) are the only ones allowed.
func TestCoroutineHandoffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	w := newWorld(t, 1, 1, htm.Config{})
	wk := w.engines[0].NewWorker(0)
	g := &keyGate{}
	b := new(LockRun).Batch(wk)
	doorbell := func() rdma.Completion {
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
