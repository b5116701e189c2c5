package harness

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"drtmr/internal/bench/smallbank"
	"drtmr/internal/bench/tpcc"
	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/rdma"
	"drtmr/internal/txn"
)

func TestSmokeAllSystems(t *testing.T) {
	base := Options{Nodes: 2, ThreadsPerNode: 2, TxPerWorker: 40, WarehousesPerNode: 2}
	for _, sys := range []System{SysDrTMR, SysDrTMR3, SysDrTM, SysCalvin, SysSilo} {
		o := base
		o.System = sys
		r := Run(o)
		fmt.Printf("%v\n", r)
		if r.Committed == 0 {
			t.Errorf("%v: nothing committed", sys)
		}
		if r.NewOrders == 0 {
			t.Errorf("%v: no new-order committed", sys)
		}
	}
	o := base
	o.Workload = WLSmallBank
	o.SBAccountsPerNode = 500
	r := Run(o)
	fmt.Printf("smallbank: %v\n", r)
	if r.Committed == 0 {
		t.Error("smallbank: nothing committed")
	}
}

// TestBaselineVirtualNsPinned holds the three comparison systems to exact
// commits, new-orders and virtual ns on one single-worker TPC-C run each. One
// worker has no one to race, so the run is a pure function of Options: any
// change to a baseline's cost model, to a transaction's declared set or to
// what the generator draws moves a digit here.
//
// Recorded before the three systems' TPC-C copies became one table; Calvin
// and Silo are bit-identical across it. DrTM read 4239278 ns: +4080 because
// its stock-level now draws the district from the loop index, as Calvin's
// copy did, not from the worker's clock (other districts, other numbers of
// recent order lines), and -360 because a capped stock-level set is the
// district plus 99 order lines, as Calvin's was, not 100 lines plus the
// district (three capped sets, one record less each). Order-status made the
// same clock-to-loop-index move and no digit followed: the customers either
// rule picks in this run have no order yet.
func TestBaselineVirtualNsPinned(t *testing.T) {
	for _, pin := range []struct {
		sys                  System
		committed, newOrders uint64
		virtualNs            int64
	}{
		{SysDrTM, 518, 169, 4242998},
		{SysCalvin, 504, 193, 20241250},
		{SysSilo, 400, 176, 3246760},
	} {
		r := Run(Options{System: pin.sys, Nodes: 1, ThreadsPerNode: 1, TxPerWorker: 400, WarehousesPerNode: 1})
		ns := int64(math.Round(r.VirtualSec * 1e9))
		if r.Committed != pin.committed || r.NewOrders != pin.newOrders || ns != pin.virtualNs {
			t.Errorf("%v: %d commits / %d new-orders / %d virtual ns, pinned %d / %d / %d",
				pin.sys, r.Committed, r.NewOrders, ns, pin.committed, pin.newOrders, pin.virtualNs)
		}
		if r.Retries != 0 || r.Fallbacks != 0 {
			t.Errorf("%v: %d retries, %d fallbacks on a single worker", pin.sys, r.Retries, r.Fallbacks)
		}
	}
}

// TestBaselinePhasesReachResult runs the baselines on two machines with every
// new-order supplied from the other warehouse, so DrTM's growing and
// shrinking phases ring doorbells: their counters reach the Result and its
// commit breakdown. Calvin and Silo count no commit phase.
func TestBaselinePhasesReachResult(t *testing.T) {
	for _, sys := range []System{SysDrTM, SysCalvin, SysSilo} {
		r := Run(Options{System: sys, Nodes: 2, ThreadsPerNode: 1, TxPerWorker: 40, WarehousesPerNode: 1, CrossWarehouseNO: 1})
		if sys != SysDrTM {
			if r.Phases != [txn.NumPhases]txn.PhaseStat{} {
				t.Errorf("%v: phases %v, want none", sys, r.Phases)
			}
			continue
		}
		for _, p := range []txn.CommitPhase{txn.PhaseLock, txn.PhaseUnlock} {
			if r.Phases[p].Batches == 0 {
				t.Errorf("%v: no %v doorbell in %d commits", sys, p, r.Committed)
			}
			if bd := r.CommitBreakdown(); !strings.Contains(bd, p.String()) {
				t.Errorf("%v: commit breakdown %q does not name %v", sys, bd, p)
			}
		}
	}
}

// TestLoadClusterBackupsMatchPrimary holds the loaders to what a failover
// assumes: every row of every partitioned table reads the same on every
// machine that holds the shard, so a promoted backup serves the rows its
// primary held and none the primary never wrote.
func TestLoadClusterBackupsMatchPrimary(t *testing.T) {
	type row struct {
		table memstore.TableID
		key   uint64
	}
	for _, tc := range []struct {
		name string
		wl   Workload
		rows func(shard int) []row
	}{
		{"tpcc", WLTPCC, func(shard int) (out []row) {
			w := shard + 1 // one warehouse per node
			out = append(out, row{tpcc.TableWarehouse, tpcc.WKey(w)})
			for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
				out = append(out, row{tpcc.TableDistrict, tpcc.DKey(w, d)})
				for cu := 1; cu <= tpcc.CustomersPerDistrict; cu++ {
					out = append(out, row{tpcc.TableCustomer, tpcc.CKey(w, d, cu)}, row{tpcc.TableCustLastOrder, tpcc.CKey(w, d, cu)})
				}
			}
			for i := 1; i <= tpcc.StockPerWarehouse; i++ {
				out = append(out, row{tpcc.TableStock, tpcc.SKey(w, i)})
			}
			return out
		}},
		{"smallbank", WLSmallBank, func(shard int) (out []row) {
			for k := uint64(shard * 500); k < uint64(shard+1)*500; k++ {
				out = append(out, row{smallbank.TableChecking, k}, row{smallbank.TableSavings, k})
			}
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Workload: tc.wl, Nodes: 3, WarehousesPerNode: 1, SBAccountsPerNode: 500}.Defaults()
			c := buildCluster(o, 3)
			defer c.Stop()
			cfg0 := c.Coord.Current()
			read := func(node rdma.NodeID, r row) []byte {
				tbl := c.Machines[node].Store.Table(r.table)
				off, ok := tbl.Lookup(r.key)
				if !ok {
					t.Fatalf("node %d holds no row %d/%d", node, r.table, r.key)
				}
				return tbl.ReadValueNonTx(off)
			}
			for shard := 0; shard < o.Nodes; shard++ {
				backups := cfg0.BackupsOf(cluster.ShardID(shard))
				if len(backups) != 2 {
					t.Fatalf("shard %d has %d backups, want 2", shard, len(backups))
				}
				differ := 0
				for _, r := range tc.rows(shard) {
					want := read(cfg0.PrimaryOf(cluster.ShardID(shard)), r)
					for _, b := range backups {
						if !bytes.Equal(read(b, r), want) {
							differ++
						}
					}
				}
				if differ != 0 {
					t.Errorf("shard %d: %d backup rows differ from the primary's", shard, differ)
				}
			}
		})
	}
}

// TestAvgLatencyAgreesWithHistogram pins the AvgLatencyUs fix: the reported
// latency comes from the recorded histogram mean, and at one transaction per
// worker at a time (CoroutinesPerWorker=1) it must agree with the
// back-computation — the sum of the workers' virtual clocks divided by the
// committed transactions — since then a worker's clock is exactly the sum of
// its transactions' latencies. (The sum, not workers x the slowest clock: one
// worker's long backoff chain would stretch that by itself.)
func TestAvgLatencyAgreesWithHistogram(t *testing.T) {
	r := Run(Options{
		System: SysDrTMR, Workload: WLSmallBank,
		Nodes: 3, ThreadsPerNode: 2, TxPerWorker: 150,
		SBAccountsPerNode: 500, Knobs: txn.Knobs{CoroutinesPerWorker: 1},
	})
	if r.Lat == nil || r.Lat.All().Count() == 0 {
		t.Fatal("no latency histogram recorded")
	}
	if r.Lat.All().Count() != r.Committed {
		t.Errorf("histogram count %d != committed %d", r.Lat.All().Count(), r.Committed)
	}
	hist := r.AvgLatencyUs
	back := r.WorkerVirtualSec / float64(r.Committed) * 1e6
	if rel := math.Abs(hist-back) / back; rel > 0.001 {
		t.Errorf("histogram mean %.1fus disagrees with back-computation %.1fus by %.0f%%",
			hist, back, rel*100)
	}
	if !(r.P50Us > 0 && r.P50Us <= r.P90Us && r.P90Us <= r.P99Us && r.P99Us <= r.P999Us) {
		t.Errorf("percentiles not monotone: p50=%.1f p90=%.1f p99=%.1f p999=%.1f",
			r.P50Us, r.P90Us, r.P99Us, r.P999Us)
	}
	if r.AbortMatrix.Total() == 0 && r.AbortRate > 0 {
		t.Error("aborts happened but the attribution matrix is empty")
	}
}

// TestBackoffSitesAddUp: every backoff is attributed to exactly one site,
// so the per-site counters sum to the totals, and the commit-breakdown note
// names each site that backed off. A hot set under spurious HTM aborts makes
// several sites back off.
func TestBackoffSitesAddUp(t *testing.T) {
	r := Run(Options{
		System: SysDrTMR, Workload: WLSmallBank,
		Nodes: 3, ThreadsPerNode: 2, TxPerWorker: 200,
		SBRemoteProb: 0.3, SBHotFraction: 0.0005, Deterministic: true, Seed: 3,
		HTM: htm.Config{SpuriousAbortProb: 0.15, Seed: 3},
	})
	var taken, stall uint64
	note := r.CommitBreakdown()
	for site, b := range r.BackoffSites {
		taken += b.Taken
		stall += b.StallNanos
		if name := fmt.Sprintf("backoff at %s ", txn.BackoffSite(site)); (b.Taken > 0) != strings.Contains(note, name) {
			t.Errorf("site %s took %d backoffs; note: %s", txn.BackoffSite(site), b.Taken, note)
		}
	}
	if taken == 0 || taken != r.Backoffs || stall != r.BackoffStallNanos {
		t.Errorf("sites sum to %d backoffs, %d ns stalled; totals %d, %d", taken, stall, r.Backoffs, r.BackoffStallNanos)
	}
}

// TestHarnessTraceExport runs a traced SmallBank experiment and round-trips
// the recorders through the Chrome-trace writer and validator.
func TestHarnessTraceExport(t *testing.T) {
	r := Run(Options{
		System: SysDrTMR, Workload: WLSmallBank,
		Nodes: 3, ThreadsPerNode: 2, TxPerWorker: 60,
		SBAccountsPerNode: 500, SBRemoteProb: 0.2,
		Knobs: txn.Knobs{CoroutinesPerWorker: 2}, Trace: true,
	})
	if len(r.Trace) != 3*2 {
		t.Fatalf("got %d recorders, want one per worker (6)", len(r.Trace))
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, r.Trace, TraceNames()); err != nil {
		t.Fatal(err)
	}
	cats, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	for _, cat := range []string{"txn", "phase", "doorbell", "sched"} {
		if cats[cat] == 0 {
			t.Errorf("trace missing %q events (got %v)", cat, cats)
		}
	}
}

// TestFigureLatencyTables smoke-runs the new latency figure and Table 6 and
// checks the percentile rows are present and sane.
func TestFigureLatencyTables(t *testing.T) {
	lat := FigLatencyCDF(Smoke)
	if len(lat.Rows) != 7 {
		t.Fatalf("latency CDF has %d rows, want 7", len(lat.Rows))
	}
	for col := 0; col < 2; col++ {
		prev := 0.0
		for _, row := range lat.Rows {
			if row.Values[col] < prev {
				t.Errorf("%s: %s %s not monotone", lat.Title, row.XName, lat.Columns[col])
			}
			prev = row.Values[col]
		}
	}
	t6 := Table6(Smoke)
	var haveP50, haveP99 bool
	for _, row := range t6.Rows {
		if row.XName == "p50 us" && row.Values[0] > 0 {
			haveP50 = true
		}
		if row.XName == "p99 us" && row.Values[0] > 0 {
			haveP99 = true
		}
	}
	if !haveP50 || !haveP99 {
		t.Errorf("Table 6 missing percentile rows: %+v", t6.Rows)
	}
	var buf bytes.Buffer
	t6.Fprint(&buf)
	if !strings.Contains(buf.String(), "p99 us") {
		t.Error("rendered Table 6 lacks the p99 row")
	}
}
