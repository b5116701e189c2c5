package calvin

import (
	"drtmr/internal/baseline"
	"encoding/binary"
	"sync"
	"testing"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/txn"
)

const tbl memstore.TableID = 1

func enc(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func dec(b []byte) uint64 { return binary.LittleEndian.Uint64(b[:8]) }

func newWorld(t *testing.T, nodes int) (*cluster.Cluster, *System) {
	t.Helper()
	c := cluster.New(cluster.Spec{Nodes: nodes, Replicas: 1, MemBytes: 8 << 20})
	part := func(table memstore.TableID, key uint64) cluster.ShardID {
		return cluster.ShardID(key % uint64(nodes))
	}
	for _, m := range c.Machines {
		m.Store.CreateTable(tbl, memstore.TableSpec{Name: "kv", ValueSize: 16, ExpectedRows: 256})
	}
	for key := uint64(0); key < 16; key++ {
		if _, err := c.Machines[key%uint64(nodes)].Store.Table(tbl).Insert(key, enc(1000)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c, New(c, part, txn.DefaultCosts())
}

func TestDeterministicTransfer(t *testing.T) {
	c, sys := newWorld(t, 2)
	w := sys.NewWorker(0, 0)
	refs := []baseline.Ref{
		{Table: tbl, Key: 0, Write: true},
		{Table: tbl, Key: 1, Write: true}, // remote partition
	}
	if err := w.Run(refs, func(cx baseline.Ctx) error {
		a, err := cx.Get(tbl, 0)
		if err != nil {
			return err
		}
		b, err := cx.Get(tbl, 1)
		if err != nil {
			return err
		}
		if err := cx.Put(tbl, 0, enc(dec(a)-10)); err != nil {
			return err
		}
		return cx.Put(tbl, 1, enc(dec(b)+10))
	}); err != nil {
		t.Fatal(err)
	}
	st0 := c.Machines[0].Store.Table(tbl)
	st1 := c.Machines[1].Store.Table(tbl)
	o0, _ := st0.Lookup(0)
	o1, _ := st1.Lookup(1)
	if dec(st0.ReadValueNonTx(o0)) != 990 || dec(st1.ReadValueNonTx(o1)) != 1010 {
		t.Fatal("transfer not applied at both partitions")
	}
	if w.Stats.Committed != 1 {
		t.Fatalf("stats: %+v", w.Stats)
	}
}

func TestUndeclaredAccessRejected(t *testing.T) {
	_, sys := newWorld(t, 2)
	w := sys.NewWorker(0, 0)
	err := w.Run([]baseline.Ref{{Table: tbl, Key: 0}}, func(cx baseline.Ctx) error {
		_, err := cx.Get(tbl, 3)
		return err
	})
	if err == nil {
		t.Fatal("undeclared access accepted — Calvin requires a-priori sets")
	}
}

// TestDeterministicLockOrderConserves hammers conflicting multi-partition
// transfers from every machine: the deterministic lock manager must
// serialize them without deadlock and conserve value.
func TestDeterministicLockOrderConserves(t *testing.T) {
	c, sys := newWorld(t, 3)
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			w := sys.NewWorker(cluster.NewInitialConfig(3, 1).Primary[node], node)
			for i := 0; i < 80; i++ {
				from := uint64((node + i) % 16)
				to := uint64((node*7 + i*3 + 1) % 16)
				if from == to {
					continue
				}
				refs := []baseline.Ref{
					{Table: tbl, Key: from, Write: true},
					{Table: tbl, Key: to, Write: true},
				}
				if err := w.Run(refs, func(cx baseline.Ctx) error {
					a, err := cx.Get(tbl, from)
					if err != nil {
						return err
					}
					b, err := cx.Get(tbl, to)
					if err != nil {
						return err
					}
					if dec(a) == 0 {
						return nil
					}
					if err := cx.Put(tbl, from, enc(dec(a)-1)); err != nil {
						return err
					}
					return cx.Put(tbl, to, enc(dec(b)+1))
				}); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	var total uint64
	for key := uint64(0); key < 16; key++ {
		st := c.Machines[key%3].Store.Table(tbl)
		off, _ := st.Lookup(key)
		total += dec(st.ReadValueNonTx(off))
	}
	if total != 16*1000 {
		t.Fatalf("not conserved: %d", total)
	}
}
