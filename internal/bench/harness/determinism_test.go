package harness

import (
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
