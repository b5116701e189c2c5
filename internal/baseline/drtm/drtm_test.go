package drtm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"drtmr/internal/baseline"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/rdma"
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
		engines = append(engines, NewEngine(m, part))
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

// TestConcurrentDeclaredConserve runs two workers per machine of a 3-node
// world on transfers over 16 records, so locks collide and big regions
// conflict: money is conserved and no lock word outlives the run.
func TestConcurrentDeclaredConserve(t *testing.T) {
	c, engines := newWorld(t, 3)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := engines[g%3].NewWorker(g)
			for i := 0; i < 100; i++ {
				from := uint64((g + i) % 16)
				to := uint64((g*5 + i*3 + 1) % 16)
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
		}(g)
	}
	wg.Wait()
	var total uint64
	for key := uint64(0); key < 16; key++ {
		st := c.Machines[key%3].Store.Table(tbl)
		off, _ := st.Lookup(key)
		total += dec(st.ReadValueNonTx(off))
		if lw := lockWord(c, key); lw != 0 {
			t.Errorf("key %d left locked: %#x", key, lw)
		}
	}
	if total != 16*1000 {
		t.Fatalf("not conserved: %d", total)
	}
}

// lockWord reads the lock word of key's record (newWorld places key on
// machine key % nodes).
func lockWord(c *cluster.Cluster, key uint64) uint64 {
	m := c.Machines[key%uint64(len(c.Machines))]
	off, _ := m.Store.Table(tbl).Lookup(key)
	return m.Eng.Load64NonTx(off + memstore.LockOff)
}

// TestLockBackoutReleasesAll plants a foreign lock word on the middle record
// of a lock doorbell, in lock order. The doorbell has executed every CAS by
// the time the loss is seen, so the ones behind it swapped too: an attempt
// that stops scanning at the first loss leaves them locked for ever. Both
// doorbells are held: the growing phase's over remote records, and the
// fallback's loop-back one over local records (reached because the planted
// lock aborts every big HTM region that reads it), which gives up after
// txn.Worker.LockInOrder's 32 batches.
func TestLockBackoutReleasesAll(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keys      []uint64 // declared, all written; the planted one in the middle
		fallbacks uint64
	}{
		{"growing", []uint64{1, 3, 5, 7, 9}, 0},
		{"fallback", []uint64{0, 2, 4, 6, 8, 1, 3}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, engines := newWorld(t, 2)
			w := engines[0].NewWorker(0)
			planted := tc.keys[2]
			m := c.Machines[planted%2]
			off, _ := m.Store.Table(tbl).Lookup(planted)
			foreign := memstore.LockWord(1)
			if _, ok := m.Eng.CAS64NonTx(off+memstore.LockOff, 0, foreign); !ok {
				t.Fatal("could not plant the foreign lock")
			}
			var refs []baseline.Ref
			for _, k := range tc.keys {
				refs = append(refs, baseline.Ref{Table: tbl, Key: k, Write: true})
			}
			err := w.attempt(refs, func(cx baseline.Ctx) error {
				for _, k := range tc.keys {
					if _, err := cx.Get(tbl, k); err != nil {
						return err
					}
				}
				return nil
			})
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("attempt over a foreign lock returned %v, want ErrAborted", err)
			}
			if w.Stats.Fallbacks != tc.fallbacks {
				t.Fatalf("%d fallbacks, want %d", w.Stats.Fallbacks, tc.fallbacks)
			}
			for _, k := range tc.keys {
				want := uint64(0)
				if k == planted {
					want = foreign
				}
				if lw := lockWord(c, k); lw != want {
					t.Errorf("key %d lock word %#x, want %#x", k, lw, want)
				}
			}
		})
	}
}

// TestStaleLocationReresolved deletes a remote record DrTM has cached the
// location of, lets another record take its freed slot and re-inserts it
// elsewhere. The next transaction on it sees the slot's new incarnation
// under the lock, drops the entry, aborts, and its retry finds the record
// through the index: the squatter is never written.
func TestStaleLocationReresolved(t *testing.T) {
	c, engines := newWorld(t, 2)
	w := engines[0].NewWorker(0)
	incr := func() {
		t.Helper()
		if err := w.Run([]baseline.Ref{{Table: tbl, Key: 1, Write: true}}, func(cx baseline.Ctx) error {
			v, err := cx.Get(tbl, 1)
			if err != nil {
				return err
			}
			return cx.Put(tbl, 1, enc(dec(v)+1))
		}); err != nil {
			t.Fatal(err)
		}
	}
	incr() // caches key 1's location
	m := c.Machines[1]
	st := m.Store.Table(tbl)
	freed, _ := st.Lookup(1)
	if err := st.Delete(1); err != nil {
		t.Fatal(err)
	}
	const squatter = 101
	if off, err := st.Insert(squatter, enc(7)); err != nil || off != freed {
		t.Fatalf("squatter at %#x (%v), want the freed slot %#x", off, err, freed)
	}
	if _, err := st.Insert(1, enc(500)); err != nil {
		t.Fatal(err)
	}
	before := m.Eng.ReadNonTx(freed, st.RecBytes, nil)
	incr()
	if after := m.Eng.ReadNonTx(freed, st.RecBytes, nil); !bytes.Equal(before, after) {
		t.Errorf("the freed slot was written: % x -> % x", before, after)
	}
	if off, _ := st.Lookup(1); dec(st.ReadValueNonTx(off)) != 501 {
		t.Errorf("key 1 holds %d, want 501", dec(st.ReadValueNonTx(off)))
	}
	if w.Stats.Retries != 1 {
		t.Errorf("%d retries, want the stale attempt's 1", w.Stats.Retries)
	}
	if lw := lockWord(c, 1); lw != 0 {
		t.Errorf("key 1 left locked: %#x", lw)
	}
}

// remoteScript is the fixed transaction list of TestRemoteRecordPinned: keys
// are placed by parity on a 2-node world, so every odd key is a record of
// node 1, remote to a worker of node 0.
var remoteScript = []struct {
	keys  []uint64
	write bool
}{
	{[]uint64{1, 3}, true},
	{[]uint64{0, 5}, true},
	{[]uint64{7, 9}, false},
	{[]uint64{11}, true},
	{[]uint64{2, 13, 15}, false},
	{[]uint64{3, 5, 7, 9}, true},
}

// runRemoteScript runs remoteScript twice on w, the second pass on records
// the first has already touched: each write transaction adds one to every
// record it declares. each is called after transaction i commits.
func runRemoteScript(t *testing.T, w *Worker, each func(i int)) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for i, s := range remoteScript {
			var refs []baseline.Ref
			for _, k := range s.keys {
				refs = append(refs, baseline.Ref{Table: tbl, Key: k, Write: s.write})
			}
			if err := w.Run(refs, func(cx baseline.Ctx) error {
				for _, k := range s.keys {
					v, err := cx.Get(tbl, k)
					if err != nil {
						return err
					}
					if s.write {
						if err := cx.Put(tbl, k, enc(dec(v)+1)); err != nil {
							return err
						}
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			each(pass*len(remoteScript) + i)
		}
	}
}

// doorbells counts the doorbells rec holds: each is one EvDoorbell event, of
// a batch or of a queue pair's lone verb.
func doorbells(rec *obs.Recorder) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.EvDoorbell {
			n++
		}
	}
	return n
}

// TestRemoteRecordPinned holds DrTM's remote-record path to exact commits,
// virtual ns, doorbells and NIC verbs: one worker of node 0 runs
// remoteScript against node 1's records, so nobody races it and the run is a
// pure function of the code. TestBaselineVirtualNsPinned is single-node and
// never reaches this path.
//
// Recorded at 12 / 238528 / 128 / 64 / 16 / 48 when DrTM rang one doorbell
// per verb. With the growing and shrinking phases one doorbell each and the
// location cache (24 remote records, 8 distinct, 16 of them written; a READ
// costs 1500 ns, a WRITE 1000, a CAS 2000 and a doorbell its slowest verb):
//   - index walks 24 -> 8 READs, the second pass finding all 8 cached: -24000 ns;
//   - the header re-read before each write-back is gone, 16 READs: -24000 ns;
//   - 24 lock CASes and 24 record READs one by one -> 12 doorbells: -60000 ns;
//   - 16 WRITEs and 24 unlock CASes one by one -> 12 doorbells: -40000 ns;
//
// so 238528 - 148000 = 90528 ns, 128 -> 8 + 24 doorbells, 64 -> 8 + 24
// READs, WRITEs and CASes unchanged.
func TestRemoteRecordPinned(t *testing.T) {
	c, engines := newWorld(t, 2)
	w := engines[0].NewWorker(0)
	rec := w.EnableTrace(1 << 12)
	rung := 0
	runRemoteScript(t, w, func(i int) {
		// Every location is cached by the second pass: a transaction is
		// its growing doorbell and its shrinking one.
		if n := doorbells(rec) - rung; i >= len(remoteScript) && n != 2 {
			t.Errorf("transaction %d rang %d doorbells, want 2", i, n)
		}
		rung = doorbells(rec)
	})
	var verbs rdma.StatsSnapshot
	for n := 0; n < 2; n++ {
		s := c.Net.NIC(rdma.NodeID(n)).Snapshot()
		verbs.Reads += s.Reads
		verbs.Writes += s.Writes
		verbs.Atomics += s.Atomics
	}
	got := [6]uint64{w.Stats.Committed, uint64(w.Clk.Now()), uint64(doorbells(rec)), verbs.Reads, verbs.Writes, verbs.Atomics}
	want := [6]uint64{12, 90528, 32, 32, 16, 48}
	if got != want {
		t.Errorf("commits / virtual ns / doorbells / reads / writes / atomics = %v, pinned %v", got, want)
	}
	// The 12 growing doorbells carry 24 CASes and 24 record READs, the 12
	// shrinking ones 16 WRITEs, counted to C.5, and 24 unlock CASes; each
	// doorbell costs its 2000 ns CAS.
	var phases [txn.NumPhases]txn.PhaseStat
	phases[txn.PhaseLock] = txn.PhaseStat{Verbs: 48, Batches: 12, Nanos: 24000}
	phases[txn.PhaseWriteBack] = txn.PhaseStat{Verbs: 16}
	phases[txn.PhaseUnlock] = txn.PhaseStat{Verbs: 24, Batches: 12, Nanos: 24000}
	if w.Stats.Phases != phases {
		t.Errorf("phases %v, pinned %v", w.Stats.Phases, phases)
	}
	if w.Stats.Retries != 0 || w.Stats.Fallbacks != 0 {
		t.Errorf("%d retries, %d fallbacks on a single worker", w.Stats.Retries, w.Stats.Fallbacks)
	}
	for key, want := range map[uint64]uint64{1: 1002, 3: 1004, 5: 1004, 7: 1002, 9: 1002, 11: 1002, 13: 1000, 0: 1002} {
		st := c.Machines[key%2].Store.Table(tbl)
		off, _ := st.Lookup(key)
		if got := dec(st.ReadValueNonTx(off)); got != want {
			t.Errorf("key %d holds %d, want %d", key, got, want)
		}
	}
}
