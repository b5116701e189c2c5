package harness

import (
	"math"
	"testing"

	"drtmr/internal/txn"
)

// TestDeterministicReplay is the determinism regression test: two runs with
// identical Options must produce bit-identical Results — same commits, same
// latency histogram buckets, same abort matrix, same interleaving-sensitive
// history — so a violating torture seed replays exactly. The TPC-C case
// diverged while StockLevel read its rows in Go map order.
func TestDeterministicReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"smallbank", Options{
			Workload: WLSmallBank, Nodes: 3, ThreadsPerNode: 2, TxPerWorker: 50,
			SBAccountsPerNode: 40, SBRemoteProb: 0.4,
		}},
		{"tpcc", Options{
			Workload: WLTPCC, Nodes: 2, ThreadsPerNode: 2, TxPerWorker: 200,
			WarehousesPerNode: 1, CrossWarehouseNO: 0.01, CrossWarehousePay: 0.15,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			o.System, o.Knobs = SysDrTMR, txn.Knobs{CoroutinesPerWorker: 4}
			o.History, o.Deterministic, o.Seed = true, true, 7
			a, b := Run(o), Run(o)
			fa, fb := a.Fingerprint(), b.Fingerprint()
			if fa != fb {
				t.Fatalf("same seed diverged: %s vs %s (committed %d vs %d)",
					fa, fb, a.Committed, b.Committed)
			}
			if a.Committed == 0 || len(a.HistoryTxns()) == 0 {
				t.Fatalf("degenerate run proves nothing: committed=%d hist=%d",
					a.Committed, len(a.HistoryTxns()))
			}

			// Sanity: the fingerprint actually discriminates — a different seed
			// must not collide (it schedules differently, so histories differ).
			o.Seed = 8
			if c := Run(o); c.Fingerprint() == fa {
				t.Fatal("different seed produced an identical fingerprint; the fingerprint is too weak")
			}
		})
	}
}

// TestBaselinesReplay holds the comparison systems to the schedule gate:
// each runs gated on 2 machines × 2 threads with one warehouse per machine,
// so a machine's threads share their warehouse, and half the new-orders and
// payments cross machines, so DrTM rings doorbells mid-transaction and
// Calvin's plans span both lock managers. Silo runs on one machine whatever
// Nodes says. A run is a pure function of its Options: the digits repeat on
// any host, at any GOMAXPROCS.
func TestBaselinesReplay(t *testing.T) {
	for _, pin := range []struct {
		sys                           System
		committed, retries, newOrders uint64
		virtualNs, workerVirtualNs    int64
	}{
		{SysDrTM, 1060, 0, 356, 3576486, 13771451},
		// Calvin's lock queues keep their last release instant when they
		// empty: the same commits, retries and new-orders, and the clock of a
		// transaction next in sequence order on an emptied queue moves to
		// that release, so virtual time grows from 70298900 / 266091000 ns.
		{SysCalvin, 998, 0, 365, 120938900, 457365000},
		{SysSilo, 400, 0, 171, 1629360, 3140180},
	} {
		r := Run(Options{
			System: pin.sys, Nodes: 2, ThreadsPerNode: 2, TxPerWorker: 200, WarehousesPerNode: 1,
			CrossWarehouseNO: 0.5, CrossWarehousePay: 0.5, Deterministic: true, Seed: 5,
		})
		ns, wns := int64(math.Round(r.VirtualSec*1e9)), int64(math.Round(r.WorkerVirtualSec*1e9))
		if r.Committed != pin.committed || r.Retries != pin.retries || r.NewOrders != pin.newOrders ||
			ns != pin.virtualNs || wns != pin.workerVirtualNs {
			t.Errorf("%v: %d commits / %d retries / %d new-orders / %d / %d virtual ns, pinned %d / %d / %d / %d / %d",
				pin.sys, r.Committed, r.Retries, r.NewOrders, ns, wns,
				pin.committed, pin.retries, pin.newOrders, pin.virtualNs, pin.workerVirtualNs)
		}
	}
}
