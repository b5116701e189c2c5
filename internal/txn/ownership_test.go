package txn

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"drtmr/internal/htm"
)

// TestReadValueOwnership: a value Read returns belongs to the caller. It
// keeps its bytes after Commit and after the worker's next transaction; an
// append to it runs into neither a later Read's result nor the read set's
// cached copy; changing it in place changes no repeated Read of the key; and
// a Write of the key, which takes the read set's copy for its buffer, leaves
// it alone. Every protocol runs it, on two workers per machine with four
// coroutines each, so sibling transactions carve values, local and remote,
// while one is held; each transaction moves one unit between two accounts,
// so the records change under the values kept. A transaction's slab starts
// with a chunk as large as the worker's last transaction carved: in the
// "sized chunks" case, one worker alone runs transactions of 1, 6 and 11
// records in turn, so each sizes its first chunk from a smaller, a larger or
// an equal predecessor, and the values transaction N returned must keep their
// bytes while N+1 to N+3 run.
func TestReadValueOwnership(t *testing.T) {
	t.Run("sized chunks", func(t *testing.T) {
		forEachProtocol(t, sizedChunkRounds)
	})
	forEachProtocol(t, func(t *testing.T, proto string) {
		const (
			nodes    = 3
			accounts = 24
			initial  = 1000
			rounds   = 30
		)
		w := newWorld(t, nodes, 1, htm.Config{})
		w.setProtocol(proto)
		w.load(t, accounts, initial)
		var wg sync.WaitGroup
		for n := 0; n < nodes; n++ {
			for id := 0; id < 2; id++ {
				wg.Add(1)
				go func(node, id int) {
					defer wg.Done()
					wk := w.engines[node].NewWorker(id)
					wk.RunCoroutines(4, func(slot int) {
						ownershipRounds(t, wk, newTestRand(uint64(node*100+id*10+slot+1)), accounts, rounds)
					})
				}(n, id)
			}
		}
		wg.Wait()
		if total := w.totalOnPrimaries(accounts); total != accounts*initial {
			t.Fatalf("value not conserved: %d != %d", total, accounts*initial)
		}
	})
}

// sizedChunkRounds is TestReadValueOwnership's "sized chunks" case. Each
// transaction reads its records, local and remote, writes each a value no
// other transaction writes and reads it back, and keeps every value Read
// returned.
func sizedChunkRounds(t *testing.T, proto string) {
	const accounts = 24
	w := newWorld(t, 3, 1, htm.Config{})
	w.setProtocol(proto)
	w.load(t, accounts, 1000)
	wk := w.engines[0].NewWorker(0)
	type kept struct{ got, want []byte }
	var last [4][]kept // the values transactions N-3 to N returned
	for n := uint64(0); n < 40; n++ {
		var mine []kept
		err := wk.Run(func(tx *Txn) error {
			mine = mine[:0]
			for j := uint64(0); j < 1+n%3*5; j++ {
				key := (n + j) % accounts
				v, err := tx.Read(tblAcct, key)
				if err != nil {
					return err
				}
				if err := tx.Write(tblAcct, key, encBal(n<<8|j)); err != nil {
					return err
				}
				nv, err := tx.Read(tblAcct, key)
				if err != nil {
					return err
				}
				mine = append(mine, kept{v, bytes.Clone(v)}, kept{nv, bytes.Clone(nv)})
			}
			return nil
		})
		if err != nil {
			t.Fatalf("transaction %d: %v", n, err)
		}
		last[n%4] = mine
		for _, vs := range last {
			for _, v := range vs {
				if !bytes.Equal(v.got, v.want) {
					t.Fatalf("after transaction %d, a value one of the last four returned is %x, want %x", n, v.got, v.want)
				}
			}
		}
	}
}

// ownershipRounds is one coroutine's share of TestReadValueOwnership.
func ownershipRounds(t *testing.T, wk *Worker, rng *testRand, accounts uint64, rounds int) {
	var prev, prevWant []byte // a value the previous transaction returned
	for r := 0; r < rounds; r++ {
		a, b := rng.next()%accounts, rng.next()%accounts
		if a == b {
			b = (a + 1) % accounts
		}
		var held, heldWant []byte
		err := wk.Run(func(tx *Txn) error {
			va, err := tx.Read(tblAcct, a)
			if err != nil {
				return err
			}
			vb, err := tx.Read(tblAcct, b)
			if err != nil {
				return err
			}
			snapA, snapB := bytes.Clone(va), bytes.Clone(vb)

			_ = append(va, bytes.Repeat([]byte{0xEE}, 16)...)
			if got, err := tx.Read(tblAcct, b); err != nil || !bytes.Equal(got, snapB) {
				t.Errorf("Read(%d) after an append to Read(%d)'s value = %x, %v; want %x", b, a, got, err, snapB)
			}
			for _, c := range []struct {
				key  uint64
				want []byte
			}{{a, snapA}, {b, snapB}} {
				if rs := tx.findRS(tblAcct, c.key); rs == nil || !bytes.Equal(rs.val, c.want) {
					t.Errorf("read set's copy of %d changed after an append to a returned value", c.key)
				}
			}

			va[0] ^= 0xFF
			if got, err := tx.Read(tblAcct, a); err != nil || !bytes.Equal(got, snapA) {
				t.Errorf("repeated Read(%d) after an in-place change = %x, %v; want %x", a, got, err, snapA)
			}

			na, nb := encBal(decBal(snapA)-1), encBal(decBal(snapB)+1)
			if err := tx.Write(tblAcct, a, na); err != nil {
				return err
			}
			if err := tx.Write(tblAcct, b, nb); err != nil {
				return err
			}
			if got, err := tx.Read(tblAcct, a); err != nil || !bytes.Equal(got, na) {
				t.Errorf("Read(%d) after Write = %x, %v; want %x", a, got, err, na)
			}
			if !bytes.Equal(vb, snapB) {
				t.Errorf("Write(%d) changed the value Read returned: %x, want %x", b, vb, snapB)
			}
			held, heldWant = va, bytes.Clone(va)
			return nil
		})
		if err != nil {
			t.Errorf("transaction: %v", err)
			return
		}
		if !bytes.Equal(held, heldWant) {
			t.Errorf("a value Read returned changed after Commit: %x, want %x", held, heldWant)
		}
		if prev != nil && !bytes.Equal(prev, prevWant) {
			t.Errorf("a value Read returned changed after the next transaction: %x, want %x", prev, prevWant)
		}
		prev, prevWant = held, heldWant
	}
}

// TestCarriedValueOwnership: a value read through the read-only carry path
// (the second remote record of a read-only transaction on one node, whose
// record READ rides one doorbell with the first record's header READ, into a
// carve of the transaction's) belongs to the caller as well, and so does the
// read set's copy the READ landed in. Both keep their bytes while the same
// worker runs further transactions, which reuse the attempt scratch they
// came through:
// read-only commits whose validation READ takes the slot that carried it, and
// read-write commits that change the record it was read from. One worker
// alone reuses the scratch of each transaction in the next; two workers per
// machine with four coroutines each also interleave the attempts.
func TestCarriedValueOwnership(t *testing.T) {
	const (
		nodes    = 3
		accounts = 24
		initial  = 1000
		rounds   = 30
	)
	for _, c := range []struct {
		name           string
		workers, coros int
	}{{"one worker", 1, 0}, {"coroutines", 2, 4}} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, nodes, 1, htm.Config{})
			w.load(t, accounts, initial)
			var wg sync.WaitGroup
			for n := 0; n < nodes; n++ {
				for id := 0; id < c.workers; id++ {
					wg.Add(1)
					go func(node, id int) {
						defer wg.Done()
						wk := w.engines[node].NewWorker(id)
						run := func(slot int) {
							carriedRounds(t, wk, newTestRand(uint64(node*100+id*10+slot+1)), accounts, rounds)
						}
						if c.coros == 0 {
							run(0)
						} else {
							wk.RunCoroutines(c.coros, run)
						}
						if wk.Stats.Phases[PhaseROValidate].Verbs == 0 {
							t.Errorf("worker %d/%d carried no header: the carry path did not run", node, id)
						}
					}(n, id)
				}
			}
			wg.Wait()
			if total := w.totalOnPrimaries(accounts); total != accounts*initial {
				t.Fatalf("value not conserved: %d != %d", total, accounts*initial)
			}
		})
	}
}

// carriedRounds is one context's share of TestCarriedValueOwnership: each
// round reads two records of one remote node read-only, keeps the carried
// value, then runs a read-only transaction over records of both remote nodes
// (not carried: its commit posts a validation READ) and moves a unit between
// the two records, checking every value kept so far after each.
func carriedRounds(t *testing.T, wk *Worker, rng *testRand, accounts uint64, rounds int) {
	me := uint64(wk.E.M.ID)
	// key returns a random account on node (me+hop)%3.
	key := func(hop uint64) uint64 {
		return (rng.next()%(accounts/3))*3 + (me+hop)%3
	}
	type kept struct {
		what      string
		got, want []byte
	}
	var held []kept
	check := func(when string) bool {
		for _, h := range held {
			if !bytes.Equal(h.got, h.want) {
				t.Errorf("%s changed %s: %x, want %x", h.what, when, h.got, h.want)
				return false
			}
		}
		return true
	}
	for r := 0; r < rounds; r++ {
		a, b, c := key(1), key(1), key(2)
		if a == b {
			b = (a + 3) % accounts
		}
		err := wk.RunReadOnly(func(tx *Txn) error {
			if _, err := tx.Read(tblAcct, a); err != nil {
				return err
			}
			v, err := tx.Read(tblAcct, b)
			if err != nil {
				return err
			}
			rs := tx.findRS(tblAcct, b)
			held = append(held, kept{"a carried value", v, bytes.Clone(v)}, kept{"the read set's copy of a carried record", rs.val, bytes.Clone(rs.val)})
			return nil
		})
		if err != nil {
			t.Errorf("carried read: %v", err)
			return
		}
		if !check("after its Commit") {
			return
		}
		err = wk.RunReadOnly(func(tx *Txn) error {
			for _, k := range []uint64{a, c} {
				if _, err := tx.Read(tblAcct, k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("read-only transaction: %v", err)
			return
		}
		if !check("after a read-only commit's validation READ") {
			return
		}
		err = wk.Run(func(tx *Txn) error {
			va, err := tx.Read(tblAcct, a)
			if err != nil {
				return err
			}
			vb, err := tx.Read(tblAcct, b)
			if err != nil {
				return err
			}
			if err := tx.Write(tblAcct, a, encBal(decBal(va)-1)); err != nil {
				return err
			}
			return tx.Write(tblAcct, b, encBal(decBal(vb)+1))
		})
		if err != nil {
			t.Errorf("transfer: %v", err)
			return
		}
		if !check("after a commit that changed its record") {
			return
		}
	}
}

// TestRecycledTxnValueOwnership: runLoop gives a finished transaction's Txn
// back to its worker, and the worker's next Begin takes it, with its sets'
// capacity but a slab of its own. Every value an earlier Run returned — a
// Read's copy, the read set's copy, a Read of a record with a pending Add —
// keeps its bytes while the worker runs later transactions on the same Txn.
// Each transfer stamps the record it writes with its context and round, so
// a later carve over a held value would change its bytes. The transfers
// replicate (R.1 encodes each entry into the attempt's scratch, the backups
// decode in place), and the backups end byte for byte equal to their
// primaries. One worker alone reuses one Txn round after round; two workers
// per machine with four coroutines each also interleave the Txns.
func TestRecycledTxnValueOwnership(t *testing.T) {
	const (
		nodes    = 3
		accounts = 24
		initial  = 1000
		rounds   = 30
	)
	for _, c := range []struct {
		name           string
		workers, coros int
	}{{"one worker", 1, 0}, {"coroutines", 2, 4}} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, nodes, 2, htm.Config{})
			w.load(t, accounts, initial)
			var wg sync.WaitGroup
			for n := 0; n < nodes; n++ {
				for id := 0; id < c.workers; id++ {
					wg.Add(1)
					go func(node, id int) {
						defer wg.Done()
						wk := w.engines[node].NewWorker(id)
						reused := 0
						run := func(slot int) {
							stamp := uint64(node<<24 | id<<16 | slot<<8)
							reused += recycledRounds(t, wk, newTestRand(stamp+1), stamp, accounts, rounds)
						}
						if c.coros == 0 {
							run(0)
						} else {
							wk.RunCoroutines(c.coros, run)
						}
						if reused == 0 {
							t.Errorf("worker %d/%d never reused a Txn", node, id)
						}
					}(n, id)
				}
			}
			wg.Wait()
			if total := w.totalOnPrimaries(accounts); total != accounts*initial {
				t.Fatalf("value not conserved: %d != %d", total, accounts*initial)
			}
			w.awaitBackupsMatch(t, accounts)
		})
	}
}

// recycledRounds is one context's share of TestRecycledTxnValueOwnership:
// each round moves a unit from a to b, a by Read and Write, b by Add, keeps
// the values the transaction returned and checks every value kept so far.
// It returns how many rounds ran on the Txn the round before ran on.
func recycledRounds(t *testing.T, wk *Worker, rng *testRand, stamp, accounts uint64, rounds int) (reused int) {
	type kept struct {
		what      string
		got, want []byte
	}
	var held []kept
	var last *Txn
	for r := 0; r < rounds; r++ {
		a, b := rng.next()%accounts, rng.next()%accounts
		if a == b {
			b = (a + 1) % accounts
		}
		var cur []kept
		var used *Txn
		err := wk.Run(func(tx *Txn) error {
			used, cur = tx, cur[:0]
			va, err := tx.Read(tblAcct, a)
			if err != nil {
				return err
			}
			nv := encBal(decBal(va) - 1)
			binary.LittleEndian.PutUint64(nv[8:], stamp|uint64(r))
			if err := tx.Write(tblAcct, a, nv); err != nil {
				return err
			}
			if err := tx.Add(tblAcct, b, 0, 1); err != nil {
				return err
			}
			vb, err := tx.Read(tblAcct, b)
			if err != nil {
				return err
			}
			rs := tx.findRS(tblAcct, b)
			cur = append(cur,
				kept{"a Read's value", va, bytes.Clone(va)},
				kept{"a Read's value over a pending Add", vb, bytes.Clone(vb)},
				kept{"the read set's copy", rs.val, bytes.Clone(rs.val)})
			return nil
		})
		if err != nil {
			t.Errorf("transfer: %v", err)
			return reused
		}
		if used == last {
			reused++
		}
		last = used
		held = append(held, cur...)
		for _, h := range held {
			if !bytes.Equal(h.got, h.want) {
				t.Errorf("%s changed after a later Run on its worker: %x, want %x", h.what, h.got, h.want)
				return reused
			}
		}
	}
	return reused
}
