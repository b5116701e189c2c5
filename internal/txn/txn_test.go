package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
)

const tblAcct memstore.TableID = 1

// world is a test cluster with one account table partitioned by key%nodes.
type world struct {
	c       *cluster.Cluster
	engines []*Engine
}

func newWorld(t testing.TB, nodes, replicas int, htmCfg htm.Config) *world {
	t.Helper()
	spec := cluster.Spec{
		Nodes:     nodes,
		Replicas:  replicas,
		MemBytes:  16 << 20,
		RingBytes: 1 << 16,
		HTM:       htmCfg,
	}
	c := cluster.New(spec)
	part := func(table memstore.TableID, key uint64) cluster.ShardID {
		return cluster.ShardID(key % uint64(nodes))
	}
	w := &world{c: c}
	for _, m := range c.Machines {
		m.Store.CreateTable(tblAcct, memstore.TableSpec{
			Name: "acct", ValueSize: 16, ExpectedRows: 1024,
		})
		w.engines = append(w.engines, NewEngine(m, part))
	}
	c.Start()
	t.Cleanup(c.Stop)
	return w
}

// kill fail-stops machine dead and drives the failure plane's clock, a tick
// at a time as waiting workers would, until every survivor runs a
// configuration without it.
func (w *world) kill(t testing.TB, dead rdma.NodeID) {
	t.Helper()
	w.c.Kill(dead)
	deadline := time.Now().Add(10 * time.Second)
	for _, m := range w.c.Machines {
		for m.ID != dead && m.Config().IsMember(dead) {
			if time.Now().After(deadline) {
				t.Fatal("no reconfig")
			}
			w.c.Report(w.c.NextTick())
			runtime.Gosched()
		}
	}
}

func encBal(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func decBal(b []byte) uint64 { return binary.LittleEndian.Uint64(b[:8]) }

// load populates accounts 0..n-1 with balance on the primary AND every
// backup (f+1 copies, as the paper's loader would).
func (w *world) load(t testing.TB, n int, balance uint64) {
	t.Helper()
	cfg := w.c.Coord.Current()
	for key := uint64(0); key < uint64(n); key++ {
		shard := cluster.ShardID(key % uint64(w.c.Spec.Nodes))
		nodes := append([]rdma.NodeID{cfg.PrimaryOf(shard)}, cfg.BackupsOf(shard)...)
		for _, nd := range nodes {
			if _, err := w.c.Machines[nd].Store.Table(tblAcct).Insert(key, encBal(balance)); err != nil {
				t.Fatalf("load key %d on node %d: %v", key, nd, err)
			}
		}
	}
}

func (w *world) totalOnPrimaries(n int) uint64 {
	cfg := w.c.Coord.Current()
	var total uint64
	for key := uint64(0); key < uint64(n); key++ {
		shard := cluster.ShardID(key % uint64(w.c.Spec.Nodes))
		m := w.c.Machines[cfg.PrimaryOf(shard)]
		off, ok := m.Store.Table(tblAcct).Lookup(key)
		if !ok {
			continue
		}
		total += decBal(m.Store.Table(tblAcct).ReadValueNonTx(off))
	}
	return total
}

func TestLocalReadWriteCommit(t *testing.T) {
	w := newWorld(t, 1, 1, htm.Config{})
	w.load(t, 4, 100)
	wk := w.engines[0].NewWorker(0)
	err := wk.Run(func(tx *Txn) error {
		v, err := tx.Read(tblAcct, 0)
		if err != nil {
			return err
		}
		return tx.Write(tblAcct, 0, encBal(decBal(v)+5))
	})
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	err = wk.RunReadOnly(func(tx *Txn) error {
		v, err := tx.Read(tblAcct, 0)
		if err != nil {
			return err
		}
		got = decBal(v)
		return nil
	})
	if err != nil || got != 105 {
		t.Fatalf("read back: %d %v", got, err)
	}
	if wk.Stats.Committed != 2 {
		t.Fatalf("stats: %+v", wk.Stats)
	}
}

func TestDistributedTransfer(t *testing.T) {
	w := newWorld(t, 3, 1, htm.Config{})
	w.load(t, 6, 100)
	// Worker on node 0 moves 10 from key 1 (node 1) to key 2 (node 2) and
	// 5 from key 0 (local) to key 1.
	wk := w.engines[0].NewWorker(0)
	err := wk.Run(func(tx *Txn) error {
		v1, err := tx.Read(tblAcct, 1)
		if err != nil {
			return err
		}
		v2, err := tx.Read(tblAcct, 2)
		if err != nil {
			return err
		}
		v0, err := tx.Read(tblAcct, 0)
		if err != nil {
			return err
		}
		if err := tx.Write(tblAcct, 1, encBal(decBal(v1)-10+5)); err != nil {
			return err
		}
		if err := tx.Write(tblAcct, 2, encBal(decBal(v2)+10)); err != nil {
			return err
		}
		return tx.Write(tblAcct, 0, encBal(decBal(v0)-5))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{0: 95, 1: 95, 2: 110}
	wk2 := w.engines[1].NewWorker(1) // verify from a different machine
	for key, exp := range want {
		var got uint64
		if err := wk2.RunReadOnly(func(tx *Txn) error {
			v, err := tx.Read(tblAcct, key)
			if err != nil {
				return err
			}
			got = decBal(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != exp {
			t.Fatalf("key %d: got %d want %d", key, got, exp)
		}
	}
}

func TestReadNotFound(t *testing.T) {
	w := newWorld(t, 2, 1, htm.Config{})
	w.load(t, 2, 1)
	wk := w.engines[0].NewWorker(0)
	err := wk.Run(func(tx *Txn) error {
		_, err := tx.Read(tblAcct, 999) // shard 1: remote
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("remote miss: %v", err)
		}
		_, err = tx.Read(tblAcct, 998) // shard 0: local
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("local miss: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlindWriteNotFound: a blind write or add to a key that was never
// inserted, on the worker's machine or another, answers ErrNotFound from
// either protocol instead of aborting and retrying it forever.
func TestBlindWriteNotFound(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		w := newWorld(t, 3, 1, htm.Config{})
		w.setProtocol(proto)
		w.load(t, 4, 100)
		wk := w.engines[0].NewWorker(0)
		for _, tc := range []struct {
			name string
			key  uint64 // keys 0-3 are loaded; key%3 is the machine
			body func(tx *Txn, key uint64) error
		}{
			{"write local", 6, func(tx *Txn, key uint64) error { return tx.Write(tblAcct, key, encBal(7)) }},
			{"write remote", 7, func(tx *Txn, key uint64) error { return tx.Write(tblAcct, key, encBal(7)) }},
			{"add local", 9, func(tx *Txn, key uint64) error { return tx.Add(tblAcct, key, 0, 7) }},
			{"add remote", 10, func(tx *Txn, key uint64) error { return tx.Add(tblAcct, key, 0, 7) }},
		} {
			done := make(chan error, 1)
			go func() { done <- wk.Run(func(tx *Txn) error { return tc.body(tx, tc.key) }) }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrNotFound) {
					t.Errorf("%s: %v, want ErrNotFound", tc.name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: still retrying after 10s", tc.name)
			}
		}
	})
}

func TestReadYourOwnWrites(t *testing.T) {
	w := newWorld(t, 2, 1, htm.Config{})
	w.load(t, 2, 50)
	wk := w.engines[0].NewWorker(0)
	err := wk.Run(func(tx *Txn) error {
		if err := tx.Write(tblAcct, 1, encBal(77)); err != nil {
			return err
		}
		v, err := tx.Read(tblAcct, 1)
		if err != nil {
			return err
		}
		if decBal(v) != 77 {
			t.Errorf("own write invisible: %d", decBal(v))
		}
		if err := tx.Insert(tblAcct, 100, encBal(1)); err != nil {
			return err
		}
		v, err = tx.Read(tblAcct, 100)
		if err != nil || decBal(v) != 1 {
			t.Errorf("own insert invisible: %v %v", v, err)
		}
		if err := tx.Delete(tblAcct, 0); err != nil {
			return err
		}
		if _, err := tx.Read(tblAcct, 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("own delete invisible: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadAfterWriteThenDelete: a Delete after a Write or an Add of the same
// key in one transaction wins, local key or remote: a later Read of the key
// finds nothing, and the commit deletes the record.
func TestReadAfterWriteThenDelete(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		w := newWorld(t, 2, 1, htm.Config{})
		w.setProtocol(proto)
		w.load(t, 4, 100)
		wk := w.engines[0].NewWorker(0)
		write := func(tx *Txn, key uint64) error { return tx.Write(tblAcct, key, encBal(7)) }
		add := func(tx *Txn, key uint64) error { return tx.Add(tblAcct, key, 0, 7) }
		for _, tc := range []struct {
			name  string
			key   uint64 // even keys live on machine 0, the worker's
			first func(tx *Txn, key uint64) error
		}{
			{"write local", 0, write}, {"add local", 2, add},
			{"write remote", 1, write}, {"add remote", 3, add},
		} {
			if err := wk.Run(func(tx *Txn) error {
				if err := tc.first(tx, tc.key); err != nil {
					return err
				}
				if err := tx.Delete(tblAcct, tc.key); err != nil {
					return err
				}
				if v, err := tx.Read(tblAcct, tc.key); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s: read after delete returned %x, %v", tc.name, v, err)
				}
				return nil
			}); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if _, ok := w.c.Machines[tc.key%2].Store.Table(tblAcct).Lookup(tc.key); ok {
				t.Errorf("%s: key %d survived its commit", tc.name, tc.key)
			}
		}
	})
}

func TestInsertDeleteAcrossMachines(t *testing.T) {
	w := newWorld(t, 2, 1, htm.Config{})
	w.load(t, 2, 1)
	wk := w.engines[0].NewWorker(0)
	// Insert a remote record (key 11 -> shard 1).
	if err := wk.Run(func(tx *Txn) error {
		return tx.Insert(tblAcct, 11, encBal(42))
	}); err != nil {
		t.Fatal(err)
	}
	var got uint64
	if err := wk.RunReadOnly(func(tx *Txn) error {
		v, err := tx.Read(tblAcct, 11)
		if err != nil {
			return err
		}
		got = decBal(v)
		return nil
	}); err != nil || got != 42 {
		t.Fatalf("remote insert: %d %v", got, err)
	}
	// Delete it remotely.
	if err := wk.Run(func(tx *Txn) error {
		return tx.Delete(tblAcct, 11)
	}); err != nil {
		t.Fatal(err)
	}
	if err := wk.RunReadOnly(func(tx *Txn) error {
		_, err := tx.Read(tblAcct, 11)
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("after delete: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBankInvariant is the central correctness test: concurrent
// mixed local/distributed transfers from every machine conserve total value,
// with spurious HTM aborts enabled to exercise retries and the fallback. It
// runs with doorbell batching on (default) and off (sequential ablation) —
// the two accounting modes must be behaviourally identical.
func TestConcurrentBankInvariant(t *testing.T) {
	t.Run("batched", func(t *testing.T) { runBankInvariant(t, false) })
	t.Run("sequential", func(t *testing.T) { runBankInvariant(t, true) })
}

func runBankInvariant(t *testing.T, disableBatching bool) {
	const (
		nodes     = 3
		accounts  = 24
		transfers = 120
		initial   = 1000
	)
	w := newWorld(t, nodes, 1, htm.Config{SpuriousAbortProb: 0.02, Seed: 7})
	for _, e := range w.engines {
		e.DisableVerbBatching = disableBatching
	}
	w.load(t, accounts, initial)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		for wi := 0; wi < 2; wi++ {
			wg.Add(1)
			go func(node, id int) {
				defer wg.Done()
				wk := w.engines[node].NewWorker(id)
				rng := newTestRand(uint64(node*10 + id + 1))
				for i := 0; i < transfers; i++ {
					from := rng.next() % accounts
					to := rng.next() % accounts
					if from == to {
						continue
					}
					err := wk.Run(func(tx *Txn) error {
						fv, err := tx.Read(tblAcct, from)
						if err != nil {
							return err
						}
						tv, err := tx.Read(tblAcct, to)
						if err != nil {
							return err
						}
						amt := uint64(1 + rng.next()%5)
						if decBal(fv) < amt {
							return nil // no-op commit
						}
						if err := tx.Write(tblAcct, from, encBal(decBal(fv)-amt)); err != nil {
							return err
						}
						return tx.Write(tblAcct, to, encBal(decBal(tv)+amt))
					})
					if err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}(n, wi)
		}
	}
	wg.Wait()
	if total := w.totalOnPrimaries(accounts); total != accounts*initial {
		t.Fatalf("value not conserved: %d != %d", total, accounts*initial)
	}
}

// TestReplicationConsistency runs transfers with 3-way replication and then
// checks that, after the log rings drain, every backup agrees with its
// primary.
func TestReplicationConsistency(t *testing.T) {
	const (
		nodes    = 3
		accounts = 12
		initial  = 500
	)
	w := newWorld(t, nodes, 3, htm.Config{})
	w.load(t, accounts, initial)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			wk := w.engines[node].NewWorker(node)
			rng := newTestRand(uint64(node + 77))
			for i := 0; i < 60; i++ {
				from := rng.next() % accounts
				to := rng.next() % accounts
				if from == to {
					continue
				}
				if err := wk.Run(func(tx *Txn) error {
					fv, err := tx.Read(tblAcct, from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(tblAcct, to)
					if err != nil {
						return err
					}
					if decBal(fv) == 0 {
						return nil
					}
					if err := tx.Write(tblAcct, from, encBal(decBal(fv)-1)); err != nil {
						return err
					}
					return tx.Write(tblAcct, to, encBal(decBal(tv)+1))
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	if total := w.totalOnPrimaries(accounts); total != accounts*initial {
		t.Fatalf("primary value not conserved: %d", total)
	}
	w.awaitBackupsMatch(t, accounts)
}

// awaitBackupsMatch lets the appliers drain, then checks that every backup
// holds each of accounts 0..n-1 with its primary's value, byte for byte.
func (w *world) awaitBackupsMatch(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	cfg := w.c.Coord.Current()
	for {
		mismatches := 0
		for key := uint64(0); key < n; key++ {
			shard := cluster.ShardID(key % uint64(w.c.Spec.Nodes))
			p := w.c.Machines[cfg.PrimaryOf(shard)]
			pOff, _ := p.Store.Table(tblAcct).Lookup(key)
			pv := p.Store.Table(tblAcct).ReadValueNonTx(pOff)
			for _, b := range cfg.BackupsOf(shard) {
				bm := w.c.Machines[b]
				bOff, ok := bm.Store.Table(tblAcct).Lookup(key)
				if !ok || !bytes.Equal(bm.Store.Table(tblAcct).ReadValueNonTx(bOff), pv) {
					mismatches++
				}
			}
		}
		if mismatches == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replica mismatches after drain", mismatches)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUncommittableBlocksCommit checks the seqlock rule directly: a record
// parked at an odd sequence number is mid-replication, and a reader must
// wait for the makeup flip rather than serialize on the half-committed
// value (Table 4).
func TestUncommittableBlocksCommit(t *testing.T) {
	w := newWorld(t, 2, 3, htm.Config{})
	w.load(t, 2, 100)
	// Manually flip record 0 (local to node 0) to an odd seq, simulating
	// a transaction that committed in HTM but has not replicated yet.
	m := w.c.Machines[0]
	off, _ := m.Store.Table(tblAcct).Lookup(0)
	m.Eng.FAA64NonTx(off+memstore.SeqOff, 1)

	wk := w.engines[0].NewWorker(0)
	// The read backs off while the record stays odd and eventually aborts.
	tx := wk.Begin()
	_, err := tx.Read(tblAcct, 0)
	var te *Error
	if !errors.As(err, &te) || te.Reason != AbortLocked {
		t.Fatalf("read of uncommittable record should wait then abort, got: %v", err)
	}
	// Once "replicated" (seq flipped even), the retry succeeds.
	m.Eng.FAA64NonTx(off+memstore.SeqOff, 1)
	if err := wk.Run(func(tx *Txn) error {
		v, err := tx.Read(tblAcct, 0)
		if err != nil {
			return err
		}
		return tx.Write(tblAcct, 0, encBal(decBal(v)+1))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteLockBlocksLocalRead checks §4.3: a local read of a record locked
// by a remote transaction backs off instead of reading it.
func TestRemoteLockBlocksLocalRead(t *testing.T) {
	w := newWorld(t, 2, 1, htm.Config{})
	w.load(t, 2, 100)
	m := w.c.Machines[0]
	off, _ := m.Store.Table(tblAcct).Lookup(0)
	// Node 1 locks node 0's record via RDMA CAS.
	wk1 := w.engines[1].NewWorker(9)
	word := memstore.LockWord(1)
	if _, ok, _ := wk1.QP(0).CAS(off+memstore.LockOff, 0, word); !ok {
		t.Fatal("setup lock failed")
	}
	wk0 := w.engines[0].NewWorker(0)
	done := make(chan error, 1)
	go func() {
		done <- wk0.Run(func(tx *Txn) error {
			_, err := tx.Read(tblAcct, 0)
			return err
		})
	}()
	select {
	case err := <-done:
		t.Fatalf("local read of locked record returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// Unlock: the read completes.
	if _, ok, _ := wk1.QP(0).CAS(off+memstore.LockOff, word, 0); !ok {
		t.Fatal("unlock failed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read never completed after unlock")
	}
}

// TestDanglingLockReleased checks §5.2's passive release: a lock owned by a
// machine outside the configuration is cleared by whoever trips over it.
func TestDanglingLockReleased(t *testing.T) {
	w := newWorld(t, 3, 3, htm.Config{})
	w.load(t, 3, 100)
	m0 := w.c.Machines[0]
	off, _ := m0.Store.Table(tblAcct).Lookup(0)
	// Node 2 "locks" the record, then dies; the config drops it.
	wk2 := w.engines[2].NewWorker(0)
	if _, ok, _ := wk2.QP(0).CAS(off+memstore.LockOff, 0, memstore.LockWord(2)); !ok {
		t.Fatal("setup lock failed")
	}
	w.kill(t, 2)
	// A transaction from node 1 touching the record must succeed by
	// passively releasing the dangling lock.
	wk1 := w.engines[1].NewWorker(1)
	if err := wk1.Run(func(tx *Txn) error {
		v, err := tx.Read(tblAcct, 0)
		if err != nil {
			return err
		}
		return tx.Write(tblAcct, 0, encBal(decBal(v)+1))
	}); err != nil {
		t.Fatal(err)
	}
	if got := m0.Eng.Load64NonTx(off + memstore.LockOff); got != 0 {
		t.Fatalf("lock still held: %#x", got)
	}
}

// TestLockRetryBackoutReleasesAll regression-tests the C.1 retry path: the
// retry doorbell batch fully executes before its results are inspected, so
// when an early slot fails the back-out must still release locks won by
// LATER slots of the same batch — otherwise they leak forever (their holder
// is live, so passive release never clears them).
func TestLockRetryBackoutReleasesAll(t *testing.T) {
	w := newWorld(t, 4, 3, htm.Config{})
	w.load(t, 8, 100)
	cfg := w.c.Coord.Current()
	home := cfg.PrimaryOf(0) // keys 0 and 4 both live on shard 0's primary
	m := w.c.Machines[home]
	offA, _ := m.Store.Table(tblAcct).Lookup(0)
	offB, _ := m.Store.Table(tblAcct).Lookup(4)
	// lockRemote processes targets in ascending offset order. Make the
	// LOWER offset the permanently stuck one (held by a live node) and the
	// HIGHER offset the dangling lock the retry re-acquires after passive
	// release, so the retry batch fails at slot 0 and succeeds at slot 1.
	lowOff, highOff := offA, offB
	if offB < offA {
		lowOff, highOff = offB, offA
	}
	var others []rdma.NodeID
	for n := rdma.NodeID(0); int(n) < 4; n++ {
		if n != home {
			others = append(others, n)
		}
	}
	coord, liveHolder, deadNode := others[0], others[1], others[2]

	liveWord := memstore.LockWord(uint32(liveHolder))
	wkL := w.engines[liveHolder].NewWorker(0)
	if _, ok, _ := wkL.QP(home).CAS(lowOff+memstore.LockOff, 0, liveWord); !ok {
		t.Fatal("setup live lock failed")
	}
	wkD := w.engines[deadNode].NewWorker(0)
	if _, ok, _ := wkD.QP(home).CAS(highOff+memstore.LockOff, 0, memstore.LockWord(uint32(deadNode))); !ok {
		t.Fatal("setup dangling lock failed")
	}
	w.kill(t, deadNode)

	wk := w.engines[coord].NewWorker(1)
	tx := wk.Begin()
	for _, key := range []uint64{0, 4} {
		v, err := tx.Read(tblAcct, key)
		if err != nil {
			t.Fatalf("read %d: %v", key, err)
		}
		if err := tx.Write(tblAcct, key, encBal(decBal(v)+1)); err != nil {
			t.Fatal(err)
		}
	}
	err := tx.Commit()
	var te *Error
	if !errors.As(err, &te) || te.Reason != AbortLockFailed {
		t.Fatalf("commit against live-locked record: %v", err)
	}
	// The dangling-turned-acquired lock must have been backed out...
	if got := m.Eng.Load64NonTx(highOff + memstore.LockOff); got != 0 {
		t.Fatalf("retry lock leaked: %#x", got)
	}
	// ...while the live holder's lock is untouched.
	if got := m.Eng.Load64NonTx(lowOff + memstore.LockOff); got != liveWord {
		t.Fatalf("live lock clobbered: %#x", got)
	}
	// Once the live holder releases, the same transaction goes through.
	if _, ok, _ := wkL.QP(home).CAS(lowOff+memstore.LockOff, liveWord, 0); !ok {
		t.Fatal("release live lock failed")
	}
	if err := wk.Run(func(tx *Txn) error {
		for _, key := range []uint64{0, 4} {
			v, err := tx.Read(tblAcct, key)
			if err != nil {
				return err
			}
			if err := tx.Write(tblAcct, key, encBal(decBal(v)+1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLockRetryDropsHeaderBehindLostCAS: the lock stage posts each record's
// validation READ behind its lock CAS, and retries the CASes it lost. A READ
// behind a LOST CAS saw a record its holder was still entitled to rewrite, so
// only the header fetched behind the CAS that swapped may validate. Here T2
// holds key 1 through T1's first lock pass and commits a new version before
// T1's retry pass wins: T1 must abort on the sequence number — committing on
// the first pass's header would lose T2's update — under drtmr, in its §6.1
// fallback handler (whose relock retries the same way) and under farm.
func TestLockRetryDropsHeaderBehindLostCAS(t *testing.T) {
	cases := []struct {
		name, proto string
		htm         htm.Config
		keys        []uint64 // T1's read+write set; T1 runs on node 0, key 1 lives on node 1
		stage       uint8    // where T1's lock pass loses, and where it must abort
	}{
		{name: "drtmr", proto: "drtmr", keys: []uint64{1}, stage: StageValidate},
		{name: "drtmr-fallback", proto: "drtmr", htm: htmNeverCommits, keys: []uint64{1, 0, 3}, stage: StageFallback},
		{name: "farm", proto: "farm", keys: []uint64{1}, stage: StageValidate},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 3, 1, c.htm)
			w.setProtocol(c.proto)
			w.load(t, 6, 100)
			rewrite := func(keys []uint64) func(tx *Txn) error {
				return func(tx *Txn) error {
					for _, k := range keys {
						v, err := tx.Read(tblAcct, k)
						if err != nil {
							return err
						}
						if err := tx.Write(tblAcct, k, encBal(decBal(v)+1)); err != nil {
							return err
						}
					}
					return nil
				}
			}
			wk1, wk2 := w.engines[0].NewWorker(0), w.engines[2].NewWorker(0)
			t1, t2 := wk1.Begin(), wk2.Begin()
			if err := rewrite(c.keys)(t1); err != nil {
				t.Fatal(err)
			}
			if err := rewrite([]uint64{1})(t2); err != nil {
				t.Fatal(err)
			}

			// T2 is driven stage by stage: lock + validate when T1 reaches the
			// lock pass under test (at once, or for the fallback cell when the
			// handler has released T1's C.1 lock), finish — write back and
			// unlock — at T1's first scheduling point after a CAS of T1's has
			// reached node 1 and lost. T1's next pass is the retry.
			atomics := func() uint64 { return w.c.Net.NIC(1).Snapshot().Atomics }
			var locks2 []LockTarget
			var lostAt uint64 // node 1's atomics count once T2 holds the lock; 0 before
			done := false
			step := func() {
				switch {
				case done:
				case lostAt == 0:
					if c.stage == StageFallback && (t1.stage != StageFallback || w.lockWord(t, 1) != 0) {
						return
					}
					if err := t2.resolveWriteOffsets(); err != nil {
						t.Fatal(err)
					}
					locks2, _ = t2.lockSet(scopeRemote)
					var run2 LockRun
					if err := t2.lockRemote(locks2, &run2); err != nil {
						t.Fatal(err)
					}
					if err := t2.validate(validation{phase: PhaseValidate, lockedRS: true}, &run2); err != nil {
						t.Fatal(err)
					}
					lostAt = atomics()
				case atomics() > lostAt:
					t2.finish(tail{unlock: PhaseUnlock}, locks2)
					done = true
				}
			}
			step()
			wk1.SetGate(step)
			err := t1.Commit()
			wk1.SetGate(nil)

			var te *Error
			if !errors.As(err, &te) || te.Reason != AbortValidate || te.Stage != c.stage {
				t.Fatalf("T1 committed on a header read behind a lost CAS (or failed elsewhere): %v", err)
			}
			if !done {
				t.Fatal("T2 never committed: the scenario did not run")
			}
			w.assertNoLocksHeld(t, 6)
			// T2's update survives, and T1's retry lands on top of it.
			if err := wk1.Run(rewrite(c.keys)); err != nil {
				t.Fatal(err)
			}
			if got := w.totalOnPrimaries(6); got != 6*100+1+uint64(len(c.keys)) {
				t.Fatalf("balances sum to %d after T2 and T1's retry", got)
			}
		})
	}
}

// testRand is a tiny LCG for test-side randomness.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed*2862933555777941757 + 3037000493} }

func (r *testRand) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 17
}
