package calvin

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"drtmr/internal/baseline"
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

// world is a started cluster with one engine per machine and Calvin over it.
type world struct {
	c       *cluster.Cluster
	sys     *System
	engines []*txn.Engine
}

func (w *world) worker(node cluster.ShardID, id int) *Worker {
	return w.sys.NewWorker(w.engines[node], id)
}

func newWorld(t *testing.T, nodes int) *world {
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
	w := &world{c: c, sys: New(nodes)}
	for _, m := range c.Machines {
		w.engines = append(w.engines, txn.NewEngine(m, part, txn.DefaultCosts()))
	}
	c.Start()
	t.Cleanup(c.Stop)
	return w
}

func TestDeterministicTransfer(t *testing.T) {
	wd := newWorld(t, 2)
	c, w := wd.c, wd.worker(0, 0)
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
	w := newWorld(t, 2).worker(0, 0)
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
	wd := newWorld(t, 3)
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			w := wd.worker(cluster.ShardID(cluster.NewInitialConfig(3, 1).Primary[node]), node)
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
		st := wd.c.Machines[key%3].Store.Table(tbl)
		off, _ := st.Lookup(key)
		total += dec(st.ReadValueNonTx(off))
	}
	if total != 16*1000 {
		t.Fatalf("not conserved: %d", total)
	}
}

// TestWaiterResumesAtRelease holds the grant wait to virtual time: a worker
// queued behind a holder resumes at max(its own clock, the instant the
// last of its holders released), whichever of the clocks was ahead when it
// queued, however long it polled on the host meanwhile.
func TestWaiterResumesAtRelease(t *testing.T) {
	const us = int64(time.Microsecond)
	for _, tc := range []struct {
		name                    string
		holder, waiter, release int64
	}{
		{"holder ahead", 90 * us, 10 * us, 95 * us},
		{"waiter ahead, released later", 10 * us, 50 * us, 70 * us},
		{"waiter ahead of the release", 10 * us, 50 * us, 30 * us},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wd := newWorld(t, 1)
			h, w := wd.worker(0, 0), wd.worker(0, 1)
			h.Clk.AdvanceTo(tc.holder)
			w.Clk.AdvanceTo(tc.waiter)
			keys := [][]baseline.Ref{{{Table: tbl, Key: 3}, {Table: tbl, Key: 5}}}
			lm := wd.sys.lms[0]
			lm.enqueue(1, keys[0][:1]) // h's transaction
			lm.enqueue(2, keys[0][1:]) // another holder, done at h's clock
			lm.enqueue(3, keys[0])     // the waiter, behind both
			lm.release(2, keys[0][1:], tc.holder)
			// The gate hook runs at each of the waiter's polls: the first
			// one holds it until the holder has released.
			polled, hold := make(chan struct{}, 1), make(chan struct{})
			w.SetGate(func() {
				select {
				case polled <- struct{}{}:
				default:
				}
				<-hold
			})
			resumed := make(chan int64)
			go func() {
				w.awaitGrants(3, keys)
				resumed <- w.Clk.Now()
			}()
			<-polled
			h.Clk.AdvanceTo(tc.release)
			lm.release(1, keys[0][:1], h.Clk.Now())
			close(hold)
			if got, want := <-resumed, max(tc.waiter, tc.release); got != want {
				t.Fatalf("waiter resumed at %d ns, want %d (own clock %d, release %d)", got, want, tc.waiter, tc.release)
			}
		})
	}
}

// TestNextHolderResumesAfterEmptiedQueue: a holder that empties a lock's
// queue leaves its release instant behind, so the transaction next in
// sequence order, enqueued only afterwards and with a clock that is behind,
// still resumes at or after that release.
func TestNextHolderResumesAfterEmptiedQueue(t *testing.T) {
	const us = int64(time.Microsecond)
	wd := newWorld(t, 1)
	w := wd.worker(0, 1)
	w.Clk.AdvanceTo(10 * us)
	keys := [][]baseline.Ref{{{Table: tbl, Key: 3}}}
	lm := wd.sys.lms[0]
	lm.enqueue(1, keys[0])
	lm.release(1, keys[0], 95*us) // the queue is empty again
	lm.enqueue(2, keys[0])
	w.awaitGrants(2, keys)
	if got := w.Clk.Now(); got < 95*us {
		t.Fatalf("next holder resumed at %d ns, before the release at %d ns it follows", got, 95*us)
	}
}
