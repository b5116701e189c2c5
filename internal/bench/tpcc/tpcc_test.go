package tpcc

import (
	"sync"
	"testing"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/txn"
)

func tpccWorld(t *testing.T, nodes, replicas, whPerNode int) (*cluster.Cluster, []*txn.Engine, Config) {
	t.Helper()
	cfg := DefaultConfig(nodes, whPerNode)
	c := cluster.New(cluster.Spec{
		Nodes: nodes, Replicas: replicas, MemBytes: 96 << 20, RingBytes: 1 << 18,
	})
	if err := LoadCluster(c, cfg, 0); err != nil {
		t.Fatal(err)
	}
	var engines []*txn.Engine
	for _, m := range c.Machines {
		engines = append(engines, txn.NewEngine(m, cfg.Partitioner(m.ID)))
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c, engines, cfg
}

func TestKeyPackingDisjoint(t *testing.T) {
	seen := map[uint64]string{}
	check := func(k uint64, what string) {
		if prev, dup := seen[k]; dup && prev != what {
			t.Fatalf("key collision between %s and %s: %#x", prev, what, k)
		}
		seen[k] = what
	}
	for w := 1; w <= 3; w++ {
		check(WKey(w), "w")
		for d := 1; d <= DistrictsPerWarehouse; d++ {
			check(DKey(w, d), "d")
			for c := 1; c <= 5; c++ {
				check(CKey(w, d, c), "c")
			}
			for o := 1; o <= 5; o++ {
				check(OKey(w, d, o), "o")
				for l := 1; l <= 3; l++ {
					check(OLKey(w, d, o, l), "ol")
				}
			}
		}
		for i := 1; i <= 5; i++ {
			check(SKey(w, i), "s")
		}
	}
}

func TestMixMatchesSpec(t *testing.T) {
	g := NewGen(DefaultConfig(2, 1), 1, 99)
	var counts [numTxTypes]int
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.NextType()]++
	}
	for ty := 0; ty < int(numTxTypes); ty++ {
		got := float64(counts[ty]) / n * 100
		want := float64(Mix[ty])
		if got < want-1.5 || got > want+1.5 {
			t.Errorf("%v: %.1f%%, want ~%d%%", TxType(ty), got, Mix[ty])
		}
	}
}

func TestCrossWarehouseKnob(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.RemoteNewOrderProb = 0.10
	g := NewGen(cfg, 1, 5)
	dist := 0
	const n = 3000
	for i := 0; i < n; i++ {
		if g.GenNewOrder().Distributed {
			dist++
		}
	}
	// ~10 items/txn at 10% each ⇒ ≈65% distributed (1-(0.9)^10, the
	// paper quotes 57.2% counting same-machine supplies as local).
	frac := float64(dist) / n
	if frac < 0.5 || frac > 0.75 {
		t.Errorf("distributed new-order fraction %.2f, want ~0.65", frac)
	}
}

func TestNewOrderAndConsistency(t *testing.T) {
	_, engines, cfg := tpccWorld(t, 1, 1, 1)
	wk := engines[0].NewWorker(0)
	g := NewGen(cfg, 1, 3)
	ex := NewExecutor(wk, g)
	for i := 0; i < 30; i++ {
		if err := ex.NewOrder(g.GenNewOrder()); err != nil {
			t.Fatalf("new-order %d: %v", i, err)
		}
	}
	// Consistency: sum over districts of (nextOID-1) == orders inserted.
	var orders uint64
	store := engines[0].M.Store
	for d := 1; d <= DistrictsPerWarehouse; d++ {
		off, ok := store.Table(TableDistrict).Lookup(DKey(1, d))
		if !ok {
			t.Fatal("district missing")
		}
		orders += DistrictNextOID(store.Table(TableDistrict).ReadValueNonTx(off)) - InitialNextOrder
	}
	if orders != 30 {
		t.Fatalf("district counters: %d orders, want 30", orders)
	}
	for _, tbl := range []memstore.TableID{TableOrder, TableNewOrder} {
		if got := rows(store, tbl); got != 30 {
			t.Fatalf("table %d: %d rows, want 30", tbl, got)
		}
	}
}

// rows counts an ordered table's rows through its index.
func rows(store *memstore.Store, tbl memstore.TableID) int {
	n := 0
	store.Table(tbl).Ordered().Scan(0, ^uint64(0), func(uint64, uint64) bool { n++; return true })
	return n
}

func TestPaymentYTDConsistency(t *testing.T) {
	_, engines, cfg := tpccWorld(t, 1, 1, 1)
	wk := engines[0].NewWorker(0)
	g := NewGen(cfg, 1, 4)
	ex := NewExecutor(wk, g)
	var want uint64
	for i := 0; i < 40; i++ {
		p := g.GenPayment()
		if err := ex.Payment(p); err != nil {
			t.Fatalf("payment: %v", err)
		}
		want += p.Amount
	}
	store := engines[0].M.Store
	off, _ := store.Table(TableWarehouse).Lookup(WKey(1))
	if got := WarehouseYTD(store.Table(TableWarehouse).ReadValueNonTx(off)); got != want {
		t.Fatalf("warehouse ytd %d want %d", got, want)
	}
	var dytd uint64
	for d := 1; d <= DistrictsPerWarehouse; d++ {
		off, _ := store.Table(TableDistrict).Lookup(DKey(1, d))
		dytd += DistrictYTD(store.Table(TableDistrict).ReadValueNonTx(off))
	}
	if dytd != want {
		t.Fatalf("district ytd sum %d want %d", dytd, want)
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	_, engines, cfg := tpccWorld(t, 1, 1, 1)
	wk := engines[0].NewWorker(0)
	g := NewGen(cfg, 1, 8)
	ex := NewExecutor(wk, g)
	for i := 0; i < 15; i++ {
		if err := ex.NewOrder(g.GenNewOrder()); err != nil {
			t.Fatal(err)
		}
	}
	store := engines[0].M.Store
	before := rows(store, TableNewOrder)
	if err := ex.Delivery(); err != nil {
		t.Fatalf("delivery: %v", err)
	}
	after := rows(store, TableNewOrder)
	if after >= before {
		t.Fatalf("delivery consumed nothing: %d -> %d", before, after)
	}
}

func TestStandardMixRuns(t *testing.T) {
	_, engines, cfg := tpccWorld(t, 2, 1, 1)
	var wg sync.WaitGroup
	for n := 0; n < 2; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			wk := engines[node].NewWorker(node)
			home := cfg.WarehousesOf(node)[0]
			ex := NewExecutor(wk, NewGen(cfg, home, uint64(node+21)))
			for i := 0; i < 60; i++ {
				if _, err := ex.RunOne(); err != nil {
					t.Errorf("mix txn: %v", err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

func TestStandardMixWithReplication(t *testing.T) {
	c, engines, cfg := tpccWorld(t, 3, 3, 1)
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			wk := engines[node].NewWorker(node)
			home := cfg.WarehousesOf(node)[0]
			ex := NewExecutor(wk, NewGen(cfg, home, uint64(node+31)))
			for i := 0; i < 40; i++ {
				if _, err := ex.RunOne(); err != nil {
					t.Errorf("mix txn: %v", err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	_ = c
}
