// TPC-C example: the order-entry workload the paper's headline numbers come
// from, run on the public API across a replicated cluster, with the
// district/warehouse YTD consistency checks at the end.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"drtmr"
	"drtmr/internal/bench/tpcc"
)

func main() {
	nodes := flag.Int("nodes", 3, "machines")
	threads := flag.Int("threads", 2, "worker sessions per machine (one home warehouse each)")
	txns := flag.Int("txns", 300, "standard-mix transactions per session")
	cross := flag.Float64("cross", 0.01, "cross-warehouse probability for new-order")
	flag.Parse()

	if err := run(os.Stdout, *nodes, *threads, *txns, *cross); err != nil {
		log.Fatal(err)
	}
}

// runResult is what one example run produced, for the smoke test.
type runResult struct {
	counts        [5]uint64 // per standard-mix transaction type
	inconsistent  int       // warehouses failing the YTD audit
	virtualSecond float64
}

func (r runResult) total() uint64 {
	return r.counts[0] + r.counts[1] + r.counts[2] + r.counts[3] + r.counts[4]
}

// run executes the whole example — cluster bring-up, load, standard mix,
// consistency audit — writing the human-readable report to out.
func run(out io.Writer, nodes, threads, txns int, cross float64) error {
	r, err := runMix(nodes, threads, txns, cross)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "ran %d standard-mix transactions (%.1f ms simulated)\n",
		r.total(), r.virtualSecond*1000)
	for i, name := range []string{"new-order", "payment", "order-status", "delivery", "stock-level"} {
		fmt.Fprintf(out, "  %-14s %6d\n", name, r.counts[i])
	}
	fmt.Fprintf(out, "new-order throughput: %.0f txns/s (virtual time)\n",
		float64(r.counts[0])/r.virtualSecond)
	if r.inconsistent == 0 {
		fmt.Fprintln(out, "audit: warehouse/district YTD consistent ✓")
	} else {
		fmt.Fprintf(out, "audit: %d warehouses inconsistent ✗\n", r.inconsistent)
	}
	return nil
}

// runMix is the machine-readable core of the example.
func runMix(nodes, threads, txns int, cross float64) (runResult, error) {
	wcfg := tpcc.DefaultConfig(nodes, threads)
	wcfg.RemoteNewOrderProb = cross

	// The partitioner is machine-relative (ITEM replicates everywhere),
	// so build one engine per machine through the low-level API.
	db, err := drtmr.Open(drtmr.Options{
		Nodes:    nodes,
		Replicas: 3,
		MemBytes: 128 << 20,
		// Placeholder partitioner; per-machine engines below override.
		Partitioner: wcfg.Partitioner(0),
	})
	if err != nil {
		return runResult{}, err
	}
	defer db.Close()

	c := db.Cluster()
	if err := tpcc.LoadCluster(c, wcfg, 1); err != nil {
		return runResult{}, err
	}
	db.Start()

	var r runResult
	var wg sync.WaitGroup
	var mu sync.Mutex
	var virtualMax int64
	for n := 0; n < nodes; n++ {
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(node, tid int) {
				defer wg.Done()
				sess := db.Session(drtmr.NodeID(node))
				home := wcfg.WarehousesOf(node)[tid%threads]
				ex := tpcc.NewExecutor(sess.Worker(), tpcc.NewGen(wcfg, home, uint64(node*37+tid+5)))
				for i := 0; i < txns; i++ {
					if _, err := ex.RunOne(); err != nil {
						log.Printf("txn: %v", err)
						return
					}
				}
				mu.Lock()
				for i := range r.counts {
					r.counts[i] += ex.Counts[i]
				}
				if v := sess.Worker().Clk.Now(); v > virtualMax {
					virtualMax = v
				}
				mu.Unlock()
			}(n, t)
		}
	}
	wg.Wait()
	r.virtualSecond = float64(virtualMax) / 1e9

	// Consistency audit: warehouse YTD == sum of its districts' YTD.
	for n := 0; n < nodes; n++ {
		st := c.Machines[n].Store
		for _, w := range wcfg.WarehousesOf(n) {
			off, ok := st.Table(tpcc.TableWarehouse).Lookup(tpcc.WKey(w))
			if !ok {
				continue
			}
			wy := tpcc.WarehouseYTD(st.Table(tpcc.TableWarehouse).ReadValueNonTx(off))
			var dy uint64
			for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
				doff, _ := st.Table(tpcc.TableDistrict).Lookup(tpcc.DKey(w, d))
				dy += tpcc.DistrictYTD(st.Table(tpcc.TableDistrict).ReadValueNonTx(doff))
			}
			if wy != dy {
				r.inconsistent++
			}
		}
	}
	return r, nil
}
