package drtm

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

func newWorld(t *testing.T, nodes int) (*cluster.Cluster, []*Engine) {
	t.Helper()
	c := cluster.New(cluster.Spec{Nodes: nodes, Replicas: 1, MemBytes: 8 << 20})
	part := func(table memstore.TableID, key uint64) cluster.ShardID {
		return cluster.ShardID(key % uint64(nodes))
	}
	var engines []*Engine
	for _, m := range c.Machines {
		m.Store.CreateTable(tbl, memstore.TableSpec{Name: "kv", ValueSize: 16, ExpectedRows: 256})
		engines = append(engines, NewEngine(m, part, txn.DefaultCosts()))
	}
	for key := uint64(0); key < 16; key++ {
		node := key % uint64(nodes)
		if _, err := c.Machines[node].Store.Table(tbl).Insert(key, enc(1000)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c, engines
}

func TestDeclaredTransfer(t *testing.T) {
	c, engines := newWorld(t, 2)
	w := engines[0].NewWorker(0)
	// Key 0 local, key 1 remote: the classic 2PL+HTM distributed case.
	refs := []baseline.Ref{
		{Table: tbl, Key: 0, Write: true},
		{Table: tbl, Key: 1, Write: true},
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
		if err := cx.Put(tbl, 0, enc(dec(a)-50)); err != nil {
			return err
		}
		return cx.Put(tbl, 1, enc(dec(b)+50))
	}); err != nil {
		t.Fatal(err)
	}
	// Verify on both machines directly.
	check := func(node int, key, want uint64) {
		st := c.Machines[node].Store.Table(tbl)
		off, ok := st.Lookup(key)
		if !ok {
			t.Fatalf("key %d missing", key)
		}
		if got := dec(st.ReadValueNonTx(off)); got != want {
			t.Fatalf("key %d: %d want %d", key, got, want)
		}
	}
	check(0, 0, 950)
	check(1, 1, 1050)
	if w.Stats.Committed != 1 {
		t.Fatalf("stats: %+v", w.Stats)
	}
}

func TestUndeclaredAccessRejected(t *testing.T) {
	_, engines := newWorld(t, 2)
	w := engines[0].NewWorker(0)
	err := w.Run([]baseline.Ref{{Table: tbl, Key: 0}}, func(cx baseline.Ctx) error {
		_, err := cx.Get(tbl, 2) // not declared
		return err
	})
	if err == nil {
		t.Fatal("undeclared read accepted — DrTM requires a-priori sets")
	}
	err = w.Run([]baseline.Ref{{Table: tbl, Key: 0}}, func(cx baseline.Ctx) error {
		return cx.Put(tbl, 0, enc(1)) // declared read-only
	})
	if err == nil {
		t.Fatal("write to read-only ref accepted")
	}
}

func TestConcurrentDeclaredConserve(t *testing.T) {
	c, engines := newWorld(t, 3)
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			w := engines[node].NewWorker(node)
			for i := 0; i < 100; i++ {
				from := uint64((node + i) % 16)
				to := uint64((node*5 + i*3 + 1) % 16)
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
