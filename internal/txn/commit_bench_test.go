package txn

import (
	"fmt"
	"testing"

	"drtmr/internal/htm"
)

// remoteKeys8 are eight keys that map to shards 1 and 2 under key%3 with a
// worker on node 0 — i.e. all remote, spread over two target NICs.
var remoteKeys8 = []uint64{1, 2, 4, 5, 7, 8, 10, 11}

// runEightRemoteTransfer reads and rewrites all eight remote keys in one
// distributed transaction.
func runEightRemoteTransfer(w *Worker) error {
	return runEightRemoteTransferAt(w, 0)
}

// runEightRemoteTransferAt is runEightRemoteTransfer on keys shifted by
// base. Shifts that are multiples of 12 preserve every key's shard residue
// (mod 3), so coroutine slots can work disjoint all-remote key sets.
func runEightRemoteTransferAt(w *Worker, base uint64) error {
	return w.Run(func(tx *Txn) error {
		for _, k := range remoteKeys8 {
			v, err := tx.Read(tblAcct, base+k)
			if err != nil {
				return err
			}
			if err := tx.Write(tblAcct, base+k, encBal(decBal(v)+1)); err != nil {
				return err
			}
		}
		return nil
	})
}

// commitVirtualNanos measures virtual nanoseconds per commit of the
// 8-remote-record transaction over iters iterations.
func commitVirtualNanos(tb testing.TB, disableBatching bool, iters int) float64 {
	w := newWorld(tb, 3, 1, htm.Config{})
	for _, e := range w.engines {
		e.DisableVerbBatching = disableBatching
	}
	w.load(tb, 12, 1000)
	wk := w.engines[0].NewWorker(0)
	start := wk.Clk.Now()
	for i := 0; i < iters; i++ {
		if err := runEightRemoteTransfer(wk); err != nil {
			tb.Fatal(err)
		}
	}
	if wk.Stats.Committed != uint64(iters) {
		tb.Fatalf("committed %d of %d", wk.Stats.Committed, iters)
	}
	return float64(wk.Clk.Now()-start) / float64(iters)
}

// TestBatchingCommitSpeedup pins the headline claim of doorbell batching: an
// 8-remote-record distributed transaction commits in >= 2x less virtual time
// than with sequential per-verb round-trips. (C.1 posts 8 CASes, C.2 8 READs,
// C.5 8 WRITEs, C.6 8 CASes — sequential charges 32 base latencies where
// batched charges 2: the READs ride the lock doorbell, the WRITEs the unlock's.)
func TestBatchingCommitSpeedup(t *testing.T) {
	const iters = 50
	seq := commitVirtualNanos(t, true, iters)
	bat := commitVirtualNanos(t, false, iters)
	t.Logf("virtual ns/commit: sequential=%.0f batched=%.0f (%.2fx)", seq, bat, seq/bat)
	if bat <= 0 {
		t.Fatal("batched run charged no virtual time")
	}
	if seq < 2*bat {
		t.Fatalf("batching speedup %.2fx < 2x (sequential %.0fns, batched %.0fns)", seq/bat, seq, bat)
	}
}

// TestCommitPhaseCounters checks the per-phase instrumentation for the
// 8-remote-record txn: eight verbs per phase, in two doorbells per commit —
// C.2's READs ride C.1's doorbell and C.5's WRITEs ride C.6's (one QP executes
// in post order), so a verb counts to its own phase while the doorbell and its
// virtual time go to the phase of the CAS that sets its base latency. (Until
// the fusion each of the four phases rang, and was charged, a doorbell.)
func TestCommitPhaseCounters(t *testing.T) {
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 12, 1000)
	wk := w.engines[0].NewWorker(0)
	if err := runEightRemoteTransfer(wk); err != nil {
		t.Fatal(err)
	}
	for ph, doorbells := range map[CommitPhase]uint64{PhaseLock: 1, PhaseValidate: 0, PhaseWriteBack: 0, PhaseUnlock: 1} {
		ps := wk.Stats.Phases[ph]
		if ps.Batches != doorbells {
			t.Errorf("%s: %d doorbells, want %d", ph, ps.Batches, doorbells)
		}
		if ps.Verbs != 8 {
			t.Errorf("%s: %d verbs, want 8", ph, ps.Verbs)
		}
		if (ps.Nanos != 0) != (doorbells != 0) {
			t.Errorf("%s: %d virtual ns charged over %d doorbells", ph, ps.Nanos, doorbells)
		}
	}
	if ps := wk.Stats.Phases[PhaseLog]; ps.Batches != 0 {
		t.Errorf("unreplicated run logged %d batches", ps.Batches)
	}
}

// BenchmarkCommitVerbLatency reports the virtual-time commit latency of a
// single distributed transaction touching 8 remote records, batched vs
// sequential. The interesting metric is virtual-ns/commit, not wall ns/op.
func BenchmarkCommitVerbLatency(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"batched", false}, {"sequential", true}} {
		b.Run(mode.name, func(b *testing.B) {
			vns := commitVirtualNanos(b, mode.disable, b.N)
			b.ReportMetric(vns, "virtual-ns/commit")
			b.ReportMetric(0, "ns/op") // wall time is meaningless here
		})
	}
}

// coroCommitVirtualNanos measures virtual nanoseconds per commit of the
// 8-remote-record transaction with ncoro coroutine contexts in flight on
// ONE worker, each slot transacting on a disjoint all-remote key set (base
// offset 12*slot keeps shard residues). ncoro=1 is byte-identical to
// commitVirtualNanos(tb, false, iters).
func coroCommitVirtualNanos(tb testing.TB, ncoro, itersPerCoro int) float64 {
	w := newWorld(tb, 3, 1, htm.Config{})
	w.load(tb, 12*ncoro, 1000)
	wk := w.engines[0].NewWorker(0)
	start := wk.Clk.Now()
	wk.RunCoroutines(ncoro, func(slot int) {
		base := uint64(12 * slot)
		for i := 0; i < itersPerCoro; i++ {
			if err := runEightRemoteTransferAt(wk, base); err != nil {
				tb.Error(err)
				return
			}
		}
	})
	total := uint64(ncoro * itersPerCoro)
	if wk.Stats.Committed != total {
		tb.Errorf("committed %d of %d", wk.Stats.Committed, total)
	}
	return float64(wk.Clk.Now()-start) / float64(total)
}

// BenchmarkCoroutineOverlap reports virtual-time commit latency of the same
// 8-remote-record transaction with N in-flight coroutines per worker. The
// coros=1 row must match BenchmarkCommitVerbLatency/batched exactly (pure
// refactor); larger N divides the stall portion of each doorbell across the
// in-flight transactions (baselineCoro4Nanos in obs_bench_test.go pins N=4).
func BenchmarkCoroutineOverlap(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("coros=%d", n), func(b *testing.B) {
			vns := coroCommitVirtualNanos(b, n, b.N)
			b.ReportMetric(vns, "virtual-ns/commit")
			b.ReportMetric(0, "ns/op") // wall time is meaningless here
		})
	}
}
