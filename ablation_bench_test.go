package drtmr_test

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// compares the system with and without one mechanism and reports both sides
// as custom metrics (txns/s of virtual time), so the contribution of the
// mechanism is visible in one run.

import (
	"sync"
	"testing"

	"drtmr/internal/bench/smallbank"
	"drtmr/internal/cluster"
	"drtmr/internal/rdma"
	"drtmr/internal/txn"
)

// ablationWorld builds a 3-machine SmallBank cluster.
func ablationWorld(b *testing.B, replicas int, remoteProb float64, nicBps int64) (*cluster.Cluster, []*txn.Engine, smallbank.Config) {
	b.Helper()
	cfg := smallbank.DefaultConfig(3)
	cfg.AccountsPerNode = 2000
	cfg.RemoteProb = remoteProb
	c := cluster.New(cluster.Spec{
		Nodes: 3, Replicas: replicas, MemBytes: 32 << 20,
		RDMA: rdma.Config{NICBytesPerSec: nicBps},
	})
	if err := smallbank.LoadCluster(c, cfg); err != nil {
		b.Fatal(err)
	}
	var engines []*txn.Engine
	for _, m := range c.Machines {
		engines = append(engines, txn.NewEngine(m, cfg.Partitioner()))
	}
	c.Start()
	b.Cleanup(c.Stop)
	return c, engines, cfg
}

// runSB drives a fixed SmallBank load and returns txns/s of virtual time.
func runSB(engines []*txn.Engine, cfg smallbank.Config, perWorker int) float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var committed uint64
	var maxV int64
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			w := engines[node].NewWorker(node)
			g := smallbank.NewGen(cfg, cluster.ShardID(node), uint64(node+55))
			for i := 0; i < perWorker; i++ {
				_ = smallbank.Execute(w, g.Next())
			}
			mu.Lock()
			committed += w.Stats.Committed
			if v := w.Clk.Now(); v > maxV {
				maxV = v
			}
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	return float64(committed) / (float64(maxV) / 1e9)
}

// BenchmarkAblationReadOnlyProtocol measures §4.5's dedicated read-only
// path against running the same balance queries through the read-write
// commit (which locks remote read sets with RDMA CAS).
func BenchmarkAblationReadOnlyProtocol(b *testing.B) {
	var ro, rw float64
	for i := 0; i < b.N; i++ {
		_, engines, cfg := ablationWorld(b, 1, 0, rdma.NICBandwidth56G)
		balance := func(w *txn.Worker, acct uint64) func(tx *txn.Txn) error {
			return func(tx *txn.Txn) error {
				if _, err := tx.Read(smallbank.TableChecking, acct); err != nil {
					return err
				}
				_, err := tx.Read(smallbank.TableSavings, acct)
				return err
			}
		}
		run := func(readOnly bool) float64 {
			var wg sync.WaitGroup
			var mu sync.Mutex
			var committed uint64
			var maxV int64
			for n := 0; n < 3; n++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					w := engines[node].NewWorker(10 + node)
					base := uint64(node) * uint64(cfg.AccountsPerNode)
					for i := 0; i < 200; i++ {
						// Half the reads hit a remote machine: the
						// read-only protocol's saving is skipping C.1
						// locks on them.
						acct := base + uint64(i%50)
						if i%2 == 1 {
							acct = (base + uint64(cfg.AccountsPerNode) + uint64(i%50)) %
								uint64(cfg.AccountsPerNode*cfg.Nodes)
						}
						if readOnly {
							_ = w.RunReadOnly(balance(w, acct))
						} else {
							_ = w.Run(balance(w, acct))
						}
					}
					mu.Lock()
					committed += w.Stats.Committed
					if v := w.Clk.Now(); v > maxV {
						maxV = v
					}
					mu.Unlock()
				}(n)
			}
			wg.Wait()
			return float64(committed) / (float64(maxV) / 1e9)
		}
		ro = run(true)
		rw = run(false)
	}
	b.ReportMetric(ro, "read-only-path_txns/s")
	b.ReportMetric(rw, "rw-path_txns/s")
}

// BenchmarkAblationNICBandwidth shows that Figs 15/16's plateau is the NIC:
// the same replicated SmallBank load against the 56Gbps NIC and a NIC
// constrained to 1/16 of it (at this small worker count the full NIC is not
// yet saturated; the constrained one is, and throughput pins to the wire).
func BenchmarkAblationNICBandwidth(b *testing.B) {
	var slow, fast float64
	for i := 0; i < b.N; i++ {
		_, engines, cfg := ablationWorld(b, 3, 0.01, rdma.NICBandwidth56G/16)
		slow = runSB(engines, cfg, 150)
		_, engines2, cfg2 := ablationWorld(b, 3, 0.01, rdma.NICBandwidth56G)
		fast = runSB(engines2, cfg2, 150)
	}
	b.ReportMetric(slow, "nic-3.5G_txns/s")
	b.ReportMetric(fast, "nic-56G_txns/s")
}
