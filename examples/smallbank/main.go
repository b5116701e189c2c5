// SmallBank example: the paper's banking workload on the public API — six
// transaction types over checking/savings tables, a configurable fraction of
// them distributed, with a conservation audit at the end.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"drtmr"
	"drtmr/internal/bench/smallbank"
	"drtmr/internal/cluster"
)

func main() {
	nodes := flag.Int("nodes", 3, "machines")
	threads := flag.Int("threads", 2, "worker sessions per machine")
	txns := flag.Int("txns", 300, "transactions per session")
	remote := flag.Float64("remote", 0.10, "distributed-transaction probability for SP/AMG")
	flag.Parse()

	cfg := smallbank.DefaultConfig(*nodes)
	cfg.AccountsPerNode = 2000
	cfg.RemoteProb = *remote

	db, err := drtmr.Open(drtmr.Options{
		Nodes:       *nodes,
		Replicas:    3,
		Partitioner: cfg.Partitioner(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Tables + data on every machine that holds a copy.
	c := db.Cluster()
	if err := smallbank.LoadCluster(c, cfg); err != nil {
		log.Fatal(err)
	}
	before := uint64(*nodes*cfg.AccountsPerNode) * cfg.InitialBalance * 2
	db.Start()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var committed uint64
	perType := map[smallbank.TxType]int{}
	for n := 0; n < *nodes; n++ {
		for t := 0; t < *threads; t++ {
			wg.Add(1)
			go func(node, tid int) {
				defer wg.Done()
				sess := db.Session(drtmr.NodeID(node))
				g := smallbank.NewGen(cfg, cluster.ShardID(node), uint64(node*16+tid+1))
				local := map[smallbank.TxType]int{}
				for i := 0; i < *txns; i++ {
					p := g.Next()
					// Keep the audit exact: swap the two
					// money-creating types for balance checks.
					if p.Type == smallbank.TxDepositChecking || p.Type == smallbank.TxWithdrawChecking {
						p.Type = smallbank.TxBalance
					}
					if err := smallbank.Execute(sess.Worker(), p); err != nil {
						log.Printf("txn failed: %v", err)
						return
					}
					local[p.Type]++
				}
				mu.Lock()
				committed += sess.Stats().Committed
				for k, v := range local {
					perType[k] += v
				}
				mu.Unlock()
			}(n, t)
		}
	}
	wg.Wait()

	fmt.Printf("committed %d transactions across %d sessions\n", committed, *nodes**threads)
	for ty := smallbank.TxSendPayment; ty <= smallbank.TxBalance; ty++ {
		fmt.Printf("  %-24v %6d\n", ty, perType[ty])
	}

	// Audit: conserving mix must keep the total identical.
	var after uint64
	finalCfg := c.Coord.Current()
	for s := 0; s < *nodes; s++ {
		m := c.Machines[finalCfg.PrimaryOf(cluster.ShardID(s))]
		lo := uint64(s) * uint64(cfg.AccountsPerNode)
		for k := lo; k < lo+uint64(cfg.AccountsPerNode); k++ {
			for _, id := range []drtmr.TableID{smallbank.TableChecking, smallbank.TableSavings} {
				if off, ok := m.Store.Table(id).Lookup(k); ok {
					after += smallbank.DecBalance(m.Store.Table(id).ReadValueNonTx(off))
				}
			}
		}
	}
	fmt.Printf("audit: %d before, %d after", before, after)
	if before == after {
		fmt.Println("  -- conserved ✓")
	} else {
		fmt.Println("  -- MISMATCH ✗")
	}
}
