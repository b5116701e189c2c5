package txn

import (
	"bytes"
	"testing"
	"time"

	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/rdma"
)

// copyOf is one copy of a record: its machine, whether the key is there,
// and if so its value and sequence number.
type copyOf struct {
	node  rdma.NodeID
	found bool
	val   []byte
	seq   uint64
}

// copies reads key on its shard's primary and on every backup.
func (w *world) copies(key uint64) []copyOf {
	cfg := w.c.Coord.Current()
	shard := cluster.ShardID(key % uint64(w.c.Spec.Nodes))
	var out []copyOf
	for _, nd := range append([]rdma.NodeID{cfg.PrimaryOf(shard)}, cfg.BackupsOf(shard)...) {
		m := w.c.Machines[nd]
		c := copyOf{node: nd}
		if off, ok := m.Store.Table(tblAcct).Lookup(key); ok {
			c.found = true
			c.val = m.Store.Table(tblAcct).ReadValueNonTx(off)
			c.seq = memstore.RecSeq(m.Eng.ReadNonTx(off, 24, nil))
		}
		out = append(out, c)
	}
	return out
}

// awaitCopies waits for the appliers until every copy of key satisfies ok,
// and fails naming the first copy that still does not.
func (w *world) awaitCopies(t *testing.T, key uint64, what string, ok func(c copyOf) bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		bad := -1
		cs := w.copies(key)
		for i, c := range cs {
			if !ok(c) {
				bad = i
				break
			}
		}
		if bad < 0 {
			return
		}
		if time.Now().After(deadline) {
			c := cs[bad]
			t.Fatalf("key %d on node %d: %s; found %v, seq %d, value %x", key, c.node, what, c.found, c.seq, c.val)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShippedMutationsReplicated: at r=3, a remote insert committed by
// machine 0 is on the record's primary and on both backups, at its final
// sequence number and with its value, and the history holds it at that
// sequence number; a remote delete removes all three copies.
func TestShippedMutationsReplicated(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			w := newWorld(t, 3, 3, htm.Config{})
			w.setProtocol(proto)
			wk := w.engines[0].NewWorker(0)
			hist := wk.EnableHistory(obs.NewTickSource())
			const key = 4 // shard 1: remote to machine 0
			if err := wk.Run(func(tx *Txn) error { return tx.Insert(tblAcct, key, encBal(42)) }); err != nil {
				t.Fatal(err)
			}
			if ops := obs.MergeHistory(hist)[0].Ops; len(ops) != 1 || ops[0].Kind != obs.HistInsert || ops[0].Seq != 2 {
				t.Fatalf("history of the insert: %+v, want one insert at seq 2", ops)
			}
			if c := w.copies(key)[0]; !c.found || decBal(c.val) != 42 || c.seq != 2 {
				t.Fatalf("primary after the insert: found %v, seq %d, value %x; want seq 2, 42", c.found, c.seq, c.val)
			}
			w.awaitCopies(t, key, "want the insert at seq 2 with 42", func(c copyOf) bool {
				return c.found && c.seq == 2 && bytes.Equal(c.val, encBal(42))
			})
			if err := wk.Run(func(tx *Txn) error { return tx.Delete(tblAcct, key) }); err != nil {
				t.Fatal(err)
			}
			if w.copies(key)[0].found {
				t.Fatal("the primary still holds the deleted record")
			}
			w.awaitCopies(t, key, "want it deleted", func(c copyOf) bool { return !c.found })
		})
	}
}

// TestInsertOfPresentKeyInstallsNothing: an insert of a key that is already
// live commits but installs nothing, local or shipped, unreplicated or at
// r=3, whether it carries another value or the loaded record's own: every
// copy of the live record keeps its value and sequence number, and the
// history holds no insert for it.
func TestInsertOfPresentKeyInstallsNothing(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		for _, tc := range []struct {
			name     string
			replicas int
			key      uint64 // shard key%3: 0 is machine 0's own
			marker   uint64 // a key of the same shard
			own      bool   // insert the loaded value, with no update before
		}{
			{"local r1", 1, 3, 6, false}, {"remote r1", 1, 4, 7, false},
			{"local r3", 3, 3, 6, false}, {"remote r3", 3, 4, 7, false},
			{"local r1 own value", 1, 3, 6, true}, {"remote r1 own value", 1, 4, 7, true},
			{"local r3 own value", 3, 3, 6, true}, {"remote r3 own value", 3, 4, 7, true},
		} {
			t.Run(tc.name, func(t *testing.T) {
				w := newWorld(t, 3, tc.replicas, htm.Config{})
				w.setProtocol(proto)
				w.load(t, 9, 100)
				wk := w.engines[0].NewWorker(0)
				write := func(key, v uint64) {
					if err := wk.Run(func(tx *Txn) error { return tx.Write(tblAcct, key, encBal(v)) }); err != nil {
						t.Fatal(err)
					}
				}
				v := uint64(100)
				if !tc.own {
					// Two updates move the live record past the seq a
					// fresh insert settles at.
					write(tc.key, 7)
					write(tc.key, 7)
					v = 99
				}
				live := w.copies(tc.key)[0]
				hist := wk.EnableHistory(obs.NewTickSource())
				if err := wk.Run(func(tx *Txn) error { return tx.Insert(tblAcct, tc.key, encBal(v)) }); err != nil {
					t.Fatal(err)
				}
				for _, op := range obs.MergeHistory(hist)[0].Ops {
					if op.Kind == obs.HistInsert {
						t.Fatalf("the history holds an insert the record never got: %+v", op)
					}
				}
				// The marker's update rides the same rings after the insert's
				// entry, so once it is on every copy the entry was applied.
				write(tc.marker, 5)
				w.awaitCopies(t, tc.marker, "want the marker's update", func(c copyOf) bool {
					return c.found && decBal(c.val) == 5
				})
				for _, c := range w.copies(tc.key) {
					if !c.found || !bytes.Equal(c.val, live.val) || c.seq != live.seq {
						t.Fatalf("node %d: found %v, seq %d, value %x; want the live record's seq %d, value %x",
							c.node, c.found, c.seq, c.val, live.seq, live.val)
					}
				}
			})
		}
	})
}
