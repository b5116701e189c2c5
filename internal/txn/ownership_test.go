package txn

import (
	"bytes"
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
// so the records change under the values kept.
func TestReadValueOwnership(t *testing.T) {
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
