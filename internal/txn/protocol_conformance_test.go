package txn

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/sim"
)

// Protocol conformance suite: every CommitProtocol in protocols must pass the
// same correctness battery — bank-invariant conservation (plain and
// replicated, and again with the commit HTM region forced to fail every
// time), the uncommittable-read block, dangling-lock release after a kill,
// coroutine-yield atomicity, and the lock-leak back-out regression. A
// third protocol added to the table tomorrow inherits all of it for free via
// forEachProtocol.

// forEachProtocol runs f once per commit protocol.
func forEachProtocol(t *testing.T, f func(t *testing.T, proto string)) {
	for _, name := range Protocols() {
		t.Run(name, func(t *testing.T) { f(t, name) })
	}
}

// setProtocol selects the commit protocol on every engine of the world.
func (w *world) setProtocol(name string) {
	for _, e := range w.engines {
		e.Protocol = name
	}
}

// TestProtocolRegistry pins the protocol table's surface: both shipped
// protocols are listed, in order, and resolvable.
func TestProtocolRegistry(t *testing.T) {
	if names := Protocols(); !slices.Equal(names, []string{"drtmr", "farm"}) {
		t.Fatalf("Protocols() = %v, want [drtmr farm]", names)
	}
	for _, n := range Protocols() {
		if _, ok := ProtocolByName(n); !ok {
			t.Fatalf("Protocols() lists %q but ProtocolByName misses it", n)
		}
	}
	if _, ok := ProtocolByName("no-such-protocol"); ok {
		t.Fatal("ProtocolByName resolved a bogus name")
	}
}

// TestProtocolConformanceBankInvariant: concurrent mixed local/distributed
// transfers from every machine conserve total value under each protocol,
// with spurious HTM aborts exercising the retry paths (and, for drtmr, the
// fallback handler).
func TestProtocolConformanceBankInvariant(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		t.Run("plain", func(t *testing.T) { runProtocolBank(t, proto, 1) })
		t.Run("replicated", func(t *testing.T) { runProtocolBank(t, proto, 3) })
	})
}

func runProtocolBank(t *testing.T, proto string, replicas int) {
	const (
		nodes     = 3
		accounts  = 24
		transfers = 80
		initial   = 1000
	)
	w := newWorld(t, nodes, replicas, htm.Config{SpuriousAbortProb: 0.02, Seed: 11})
	w.setProtocol(proto)
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
							return nil
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
		t.Fatalf("%s: value not conserved: %d != %d", proto, total, accounts*initial)
	}
}

// TestProtocolConformanceForcedFallback is the bank invariant with an HTM
// that can never commit a region over two records (htmNeverCommits), and
// transactions that each update two local records and one remote one. Under
// drtmr every such commit exhausts htmRetries and goes through the §6.1
// fallback handler — deterministically, where SpuriousAbortProb 0.02 over 16
// retries never reaches it — so the handler's whole pipeline (release,
// sorted relock through loop-back CAS, validation, locked install, tail) is
// what conserves the money here, plain and replicated. A protocol without a
// commit HTM region (farm) simply must not care. Afterwards no record may be
// left locked.
func TestProtocolConformanceForcedFallback(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		t.Run("plain", func(t *testing.T) { runForcedFallbackBank(t, proto, 1) })
		t.Run("replicated", func(t *testing.T) { runForcedFallbackBank(t, proto, 3) })
	})
}

func runForcedFallbackBank(t *testing.T, proto string, replicas int) {
	const (
		nodes    = 3
		accounts = 24 // key%nodes is the home node: 8 accounts each
		moves    = 25
		initial  = 1000
	)
	w := newWorld(t, nodes, replicas, htmNeverCommits)
	w.setProtocol(proto)
	w.load(t, accounts, initial)
	var (
		wg                                sync.WaitGroup
		mu                                sync.Mutex
		committed, fallbacks, fallbackAbs uint64
	)
	for n := 0; n < nodes; n++ {
		for wi := 0; wi < 2; wi++ {
			wg.Add(1)
			go func(node, id int) {
				defer wg.Done()
				wk := w.engines[node].NewWorker(id)
				rng := newTestRand(uint64(node*10 + id + 1))
				for i := 0; i < moves; i++ {
					// Two distinct local accounts and one remote one.
					a := uint64(node) + nodes*(rng.next()%(accounts/nodes))
					b := uint64(node) + nodes*(rng.next()%(accounts/nodes))
					c := (uint64(node)+1+rng.next()%(nodes-1))%nodes + nodes*(rng.next()%(accounts/nodes))
					if a == b {
						continue
					}
					err := wk.Run(func(tx *Txn) error {
						av, err := tx.Read(tblAcct, a)
						if err != nil {
							return err
						}
						bv, err := tx.Read(tblAcct, b)
						if err != nil {
							return err
						}
						cv, err := tx.Read(tblAcct, c)
						if err != nil {
							return err
						}
						if decBal(av) < 2 {
							return nil
						}
						if err := tx.Write(tblAcct, a, encBal(decBal(av)-2)); err != nil {
							return err
						}
						if err := tx.Write(tblAcct, b, encBal(decBal(bv)+1)); err != nil {
							return err
						}
						return tx.Write(tblAcct, c, encBal(decBal(cv)+1))
					})
					if err != nil {
						t.Errorf("move: %v", err)
						return
					}
				}
				mu.Lock()
				committed += wk.Stats.Committed
				fallbacks += wk.Stats.Fallbacks
				for r := uint8(0); r < uint8(NumAbortReasons); r++ {
					fallbackAbs += wk.Stats.AbortMatrix.StageReasonTotal(r, StageFallback)
				}
				mu.Unlock()
			}(n, wi)
		}
	}
	wg.Wait()
	if total := w.totalOnPrimaries(accounts); total != accounts*initial {
		t.Fatalf("%s: value not conserved: %d != %d", proto, total, accounts*initial)
	}
	w.assertNoLocksHeld(t, accounts)
	if committed == 0 {
		t.Fatalf("%s: nothing committed", proto)
	}
	// Every entry into the handler ends as a commit or as an abort stamped
	// with the fallback stage, and under drtmr no commit got by without it.
	want := uint64(0)
	if proto == DefaultProtocol {
		want = committed + fallbackAbs
	}
	t.Logf("%s: %d commits, %d fallbacks, %d fallback-stage aborts", proto, committed, fallbacks, fallbackAbs)
	if fallbacks != want {
		t.Fatalf("%s: %d fallbacks, want %d (%d commits + %d fallback-stage aborts)",
			proto, fallbacks, want, committed, fallbackAbs)
	}
}

// lockWord reads the lock word of key's record on its primary.
func (w *world) lockWord(t *testing.T, key uint64) uint64 {
	t.Helper()
	m, off := w.primary(t, key)
	return m.Eng.Load64NonTx(off + memstore.LockOff)
}

// assertNoLocksHeld fails if any of accounts 0..n-1 is still locked.
func (w *world) assertNoLocksHeld(t *testing.T, n int) {
	t.Helper()
	for key := uint64(0); key < uint64(n); key++ {
		if lw := w.lockWord(t, key); lw != 0 {
			t.Errorf("key %d left locked: %#x", key, lw)
		}
	}
}

// TestProtocolConformanceUncommittableBlock: a record parked at an odd
// (mid-replication) sequence number must block readers under EVERY protocol
// — the Table 4 rule is a property of the store's seqlock encoding, not of
// any one pipeline.
func TestProtocolConformanceUncommittableBlock(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		w := newWorld(t, 2, 3, htm.Config{})
		w.setProtocol(proto)
		w.load(t, 2, 100)
		m := w.c.Machines[0]
		off, _ := m.Store.Table(tblAcct).Lookup(0)
		m.Eng.FAA64NonTx(off+memstore.SeqOff, 1)

		wk := w.engines[0].NewWorker(0)
		tx := wk.Begin()
		_, err := tx.Read(tblAcct, 0)
		var te *Error
		if !errors.As(err, &te) || te.Reason != AbortLocked {
			t.Fatalf("%s: read of uncommittable record should wait then abort, got: %v", proto, err)
		}
		// Once "replicated" (seq flipped even), the retry commits.
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
	})
}

// TestProtocolConformanceDanglingLock: §5.2's passive release must clear a
// dead machine's lock under each protocol, in BOTH places a survivor can
// trip over it — a lock on a record the survivor writes (released on the
// lock path) and a lock on a record it only reads (released on drtmr's C.1
// read-lock path, and on farm's F.2 validation path: farm never CASes
// read-set records, so the validation hook is its only chance).
func TestProtocolConformanceDanglingLock(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		t.Run("write-target", func(t *testing.T) { runDanglingLock(t, proto, true) })
		t.Run("read-target", func(t *testing.T) { runDanglingLock(t, proto, false) })
	})
}

func runDanglingLock(t *testing.T, proto string, writeLocked bool) {
	w := newWorld(t, 3, 3, htm.Config{})
	w.setProtocol(proto)
	w.load(t, 6, 100)
	m0 := w.c.Machines[0]
	off, _ := m0.Store.Table(tblAcct).Lookup(0)
	// Node 2 locks node 0's record 0, then dies.
	wk2 := w.engines[2].NewWorker(0)
	if _, ok, _ := wk2.QP(0).CAS(off+memstore.LockOff, 0, memstore.LockWord(2)); !ok {
		t.Fatal("setup lock failed")
	}
	w.kill(t, 2)

	wk1 := w.engines[1].NewWorker(1)
	err := wk1.Run(func(tx *Txn) error {
		// Key 0 carries the dangling lock; key 3 (same shard) is clean.
		v0, err := tx.Read(tblAcct, 0)
		if err != nil {
			return err
		}
		v3, err := tx.Read(tblAcct, 3)
		if err != nil {
			return err
		}
		if writeLocked {
			// The locked record is a write target: the lock path releases.
			return tx.Write(tblAcct, 0, encBal(decBal(v0)+1))
		}
		// The locked record is read-only in this transaction: only the
		// validation path (or drtmr's read-set lock CAS) can release it.
		_ = v0
		return tx.Write(tblAcct, 3, encBal(decBal(v3)+1))
	})
	if err != nil {
		t.Fatalf("%s: commit against dangling lock: %v", proto, err)
	}
	if got := m0.Eng.Load64NonTx(off + memstore.LockOff); got != 0 {
		t.Fatalf("%s: dangling lock still held: %#x", proto, got)
	}
}

// TestProtocolConformanceCoroutineAtomicity: coroutine-scheduled workers
// interleave several in-flight transactions on one worker (shared QPs,
// shared lock word); yields at every doorbell must not break conservation
// under any protocol.
func TestProtocolConformanceCoroutineAtomicity(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		const keys = 24
		w := newWorld(t, 3, 1, htm.Config{})
		w.setProtocol(proto)
		w.load(t, keys, 1000)
		var wg sync.WaitGroup
		for n := 0; n < 3; n++ {
			wk := w.engines[n].NewWorker(n)
			wg.Add(1)
			go func(wk *Worker, seed uint64) {
				defer wg.Done()
				wk.RunCoroutines(4, func(slot int) {
					rng := sim.NewRand(seed*131 + uint64(slot) + 1)
					for i := 0; i < 30; i++ {
						from := uint64(rng.Intn(keys))
						to := uint64(rng.Intn(keys))
						if from == to {
							continue
						}
						_ = wk.Run(func(tx *Txn) error {
							fv, err := tx.Read(tblAcct, from)
							if err != nil {
								return err
							}
							tv, err := tx.Read(tblAcct, to)
							if err != nil {
								return err
							}
							if err := tx.Write(tblAcct, from, encBal(decBal(fv)-1)); err != nil {
								return err
							}
							return tx.Write(tblAcct, to, encBal(decBal(tv)+1))
						})
					}
				})
			}(wk, uint64(n))
		}
		wg.Wait()
		if got, want := w.totalOnPrimaries(keys), uint64(keys*1000); got != want {
			t.Fatalf("%s: money not conserved: total %d, want %d", proto, got, want)
		}
	})
}

// TestProtocolLockBackoutReleasesAll is the mid-batch lock-scan regression
// (the c08a886 bug class) expressed against the SHARED interface instead of
// drtmr internals: a commit whose lock batch fails on a LIVE holder's lock
// must abort AbortLockFailed AND release every lock the batch did win —
// under every protocol, and in drtmr's fallback handler too, which drives the
// same lock batch group by group. A leak here is permanent: the holder is
// alive, so passive release never clears it.
func TestProtocolLockBackoutReleasesAll(t *testing.T) {
	type backoutCase struct {
		name, proto string
		htm         htm.Config
		committer   int      // node the failing transaction runs on
		keys        []uint64 // its read+write set; key 4 carries the live lock
		stage       uint8    // where the abort must be attributed
	}
	var cases []backoutCase
	for _, proto := range Protocols() {
		// Node 0 writes four records of node 1 in one transaction: the lock
		// batch wins 1, 7, 10 and fails on 4.
		cases = append(cases, backoutCase{name: proto, proto: proto, committer: 0,
			keys: []uint64{1, 4, 7, 10}, stage: StageLock})
	}
	// The fallback: node 1 writes the same four records — local to it — plus
	// node 0's key 0, and its HTM region can never commit. C.1 wins key 0;
	// the handler releases it, relocks it as the first (node 0) group, then
	// wins 1, 7, 10 and keeps missing 4 in the second: the back-out spans a
	// fully acquired group and the winners of a failed one.
	cases = append(cases, backoutCase{name: "drtmr-fallback", proto: DefaultProtocol, htm: htmNeverCommits,
		committer: 1, keys: []uint64{0, 1, 4, 7, 10}, stage: StageFallback})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 3, 1, c.htm)
			w.setProtocol(c.proto)
			w.load(t, 12, 100)
			rewriteAll := func(tx *Txn) error {
				for _, k := range c.keys {
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

			wk := w.engines[c.committer].NewWorker(1)
			tx := wk.Begin()
			if err := rewriteAll(tx); err != nil {
				t.Fatal(err)
			}
			// Node 2 (live!) plants its lock word on key 4's record on node 1
			// — after the execution phase, which backs off from locked local
			// records instead of reading them.
			off4, _ := w.c.Machines[1].Store.Table(tblAcct).Lookup(4)
			liveWord := memstore.LockWord(2)
			wk2 := w.engines[2].NewWorker(0)
			if _, ok, _ := wk2.QP(1).CAS(off4+memstore.LockOff, 0, liveWord); !ok {
				t.Fatal("setup live lock failed")
			}

			err := tx.Commit()
			var te *Error
			if !errors.As(err, &te) || te.Reason != AbortLockFailed {
				t.Fatalf("commit against live lock: %v", err)
			}
			if te.Stage != c.stage {
				t.Errorf("abort stage %s, want %s", StageName(te.Stage), StageName(c.stage))
			}
			// Every OTHER lock word must be zero again; the live holder's stays.
			for _, k := range c.keys {
				want := uint64(0)
				if k == 4 {
					want = liveWord
				}
				if got := w.lockWord(t, k); got != want {
					t.Fatalf("lock word of key %d after back-out: %#x, want %#x", k, got, want)
				}
			}
			// After the holder releases, the same transaction commits.
			if _, ok, _ := wk2.QP(1).CAS(off4+memstore.LockOff, liveWord, 0); !ok {
				t.Fatal("release live lock failed")
			}
			if err := wk.Run(rewriteAll); err != nil {
				t.Fatal(err)
			}
			if viaFallback := c.stage == StageFallback; (wk.Stats.Fallbacks > 0) != viaFallback {
				t.Errorf("fallbacks = %d, want fallback path taken = %v", wk.Stats.Fallbacks, viaFallback)
			}
		})
	}
}

// TestProtocolConformanceDoorbellBudget: a committed transaction rings TWO
// commit-phase doorbells however many remote nodes and records it touches —
// lock CASes with the validation READs behind them, write-back WRITEs with
// the unlock CASes behind them — whatever its read/write mix. The one
// exception is a protocol that does not lock what it only reads: farm reads
// such remote records in a third doorbell, rung once every write lock is held.
// A read-only transaction rings one under every protocol, its validation
// READs, when its remote records span nodes, and none when they sit on one:
// its last READ carried the others' headers. In the forced-fallback cell the
// §6.1 handler validates from the headers its relock fetched: one doorbell
// per node group, one for the tail, no READ doorbell of its own. Replicated
// 3-way, R.1 adds ONE doorbell whatever the entry's size: every ring's
// payload WRITE (none for a one-line entry) and header WRITE ride it, the
// header behind its payload on the ring's queue pair.
func TestProtocolConformanceDoorbellBudget(t *testing.T) {
	type access struct {
		key         uint64 // key%3 is the home node; the worker runs on node 0
		read, write bool   // write without read: a blind update; neither: a blind Add
	}
	shapes := []struct {
		name     string
		acc      []access
		roRemote bool   // some remote record is read but not written
		readOnly bool   // run through RunReadOnly
		logVerbs uint64 // replicated 3-way when set: R.1's WRITEs to its 3 rings
	}{
		{name: "rw-1-node", acc: []access{{1, true, true}}},
		{name: "rw-2-nodes", acc: []access{{1, true, true}, {2, true, true}, {4, true, true}, {5, true, true}}},
		{name: "blind-2-nodes", acc: []access{{1, false, true}, {2, false, false}}},
		{name: "rw+locals", acc: []access{{1, true, true}, {0, true, true}, {3, true, true}}},
		{name: "ro+rw", acc: []access{{1, true, false}, {2, true, true}}, roRemote: true},
		{name: "ro+local-write", acc: []access{{1, true, false}, {2, true, false}, {0, true, true}}, roRemote: true},
		{name: "ro-2-nodes", acc: []access{{1, true, false}, {2, true, false}}, readOnly: true},
		{name: "ro-1-node", acc: []access{{1, true, false}, {4, true, false}}, readOnly: true},
		// One record fits the entry in one line: a header WRITE per ring.
		{name: "r3-one-line", acc: []access{{1, true, true}}, logVerbs: 3},
		// Two records spill it into a second line: payload + header per ring.
		{name: "r3-multi-line", acc: []access{{1, true, true}, {2, true, true}}, logVerbs: 6},
	}
	run := func(tx *Txn, acc []access) error {
		for _, a := range acc {
			var v []byte
			var err error
			switch {
			case a.read:
				v, err = tx.Read(tblAcct, a.key)
			case !a.write:
				err = tx.Add(tblAcct, a.key, 0, 1)
			default:
				v = encBal(7)
			}
			if err == nil && a.write {
				err = tx.Write(tblAcct, a.key, encBal(decBal(v)+1))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	doorbells := func(s *Stats) (n uint64) {
		for _, ps := range s.Phases {
			n += ps.Batches
		}
		return n
	}
	forEachProtocol(t, func(t *testing.T, proto string) {
		for _, sh := range shapes {
			t.Run(sh.name, func(t *testing.T) {
				replicas := 1
				if sh.logVerbs > 0 {
					replicas = 3
				}
				w := newWorld(t, 3, replicas, htm.Config{})
				w.setProtocol(proto)
				w.load(t, 6, 100)
				wk := w.engines[0].NewWorker(0)
				runTx := wk.Run
				if sh.readOnly {
					runTx = wk.RunReadOnly
				}
				if err := runTx(func(tx *Txn) error { return run(tx, sh.acc) }); err != nil {
					t.Fatal(err)
				}
				want := uint64(2)
				switch {
				case sh.name == "ro-1-node":
					want = 0
				case sh.readOnly:
					want = 1
				case proto == "farm" && sh.roRemote:
					want = 3
				case sh.logVerbs > 0:
					want = 3
				}
				if got := doorbells(&wk.Stats); got != want || wk.Stats.Retries != 0 {
					t.Errorf("%d commit-phase doorbells (%d retries), want %d: %+v", got, wk.Stats.Retries, want, wk.Stats.Phases)
				}
				if log := wk.Stats.Phases[PhaseLog]; log.Verbs != sh.logVerbs || log.Batches != min(sh.logVerbs, 1) {
					t.Errorf("R.1 posted %d verbs in %d doorbells, want %d in one", log.Verbs, log.Batches, sh.logVerbs)
				}
			})
		}
		t.Run("forced-fallback", func(t *testing.T) {
			w := newWorld(t, 3, 1, htmNeverCommits)
			w.setProtocol(proto)
			w.load(t, 6, 100)
			wk := w.engines[0].NewWorker(0)
			if err := wk.Run(func(tx *Txn) error { return run(tx, shapes[3].acc) }); err != nil {
				t.Fatal(err)
			}
			ph := &wk.Stats.Phases
			if wk.Stats.Fallbacks == 0 {
				// No commit HTM region to fail: the plain budget holds.
				if got := doorbells(&wk.Stats); got != 2 {
					t.Errorf("%d commit-phase doorbells, want 2: %+v", got, *ph)
				}
				return
			}
			// C.1+C.2, the handler's release, its relock of node 0's and node
			// 1's groups, its write-back+unlock.
			if ph[PhaseValidate].Batches != 0 || ph[PhaseWriteBack].Batches != 0 || ph[PhaseFallback].Batches != 3 || doorbells(&wk.Stats) != 5 {
				t.Errorf("fallback commit rang %d doorbells, want lock 1, unlock 1, fallback 3 and none for validation or write-back: %+v",
					doorbells(&wk.Stats), *ph)
			}
		})
	})
}

// TestProtocolROVerbAccounting pins the protocol-matrix headline: for a
// transaction that reads two remote records and writes one local record,
// drtmr charges 3 one-sided verbs per read-only record (C.1 lock CAS + C.2
// validation READ + C.6 unlock CAS) while farm charges 1 (the validation
// READ) — and NEITHER wakes a remote CPU at a pure read participant.
func TestProtocolROVerbAccounting(t *testing.T) {
	want := map[string]uint64{"drtmr": 6, "farm": 2}
	forEachProtocol(t, func(t *testing.T, proto string) {
		w := newWorld(t, 3, 1, htm.Config{})
		w.setProtocol(proto)
		w.load(t, 6, 100)
		wk := w.engines[0].NewWorker(0)
		if err := wk.Run(func(tx *Txn) error {
			if _, err := tx.Read(tblAcct, 1); err != nil { // node 1: read-only
				return err
			}
			if _, err := tx.Read(tblAcct, 2); err != nil { // node 2: read-only
				return err
			}
			v, err := tx.Read(tblAcct, 0) // local write target
			if err != nil {
				return err
			}
			return tx.Write(tblAcct, 0, encBal(decBal(v)+1))
		}); err != nil {
			t.Fatal(err)
		}
		if wexp, ok := want[proto]; ok && wk.Stats.ROVerbs != wexp {
			t.Errorf("%s: ROVerbs = %d, want %d", proto, wk.Stats.ROVerbs, wexp)
		}
		if wk.Stats.ROWakeups != 0 {
			t.Errorf("%s: ROWakeups = %d, want 0", proto, wk.Stats.ROWakeups)
		}
	})
}
