package check

import (
	"fmt"
	"sort"

	"drtmr/internal/bench/harness"
	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/txn"
)

// Mutation-test mode: re-run the torture workload with exactly one protocol
// step disabled and assert the checker flags the resulting histories. A
// checker that passes correct histories proves nothing by itself — only
// catching known-broken protocols shows it has teeth.

// MutationOutcome reports whether the checker caught one protocol mutation.
type MutationOutcome struct {
	Name      string
	Caught    bool
	Seed      uint64     // seed of the catching cell (deterministic replay)
	Violation *Violation // first violation found
}

func (m MutationOutcome) String() string {
	if !m.Caught {
		return fmt.Sprintf("%-22s NOT CAUGHT", m.Name)
	}
	return fmt.Sprintf("%-22s caught (seed=%#x): %s", m.Name, m.Seed, m.Violation)
}

// mutationCell is one high-contention deterministic cell: few, hot accounts
// and heavy cross-shard traffic so a disabled protocol step corrupts the
// history within a short run.
func mutationCell(mut txn.Mutations, seed uint64) Cell {
	return Cell{
		Name: "mutation",
		Opts: harness.Options{
			System:            harness.SysDrTMR,
			Workload:          harness.WLSmallBank,
			Nodes:             3,
			ThreadsPerNode:    2,
			TxPerWorker:       130,
			SBAccountsPerNode: 16,
			SBRemoteProb:      0.5,
			Knobs:             txn.Knobs{CoroutinesPerWorker: 4, Mut: mut},
			History:           true,
			Deterministic:     true,
			Seed:              seed,
		},
		CheckOpts: Options{Strict: true},
	}
}

// MutationSelfTest disables one protocol step at a time and runs the
// checker against the damage. Each lock/validate mutation is tried under a
// handful of derived seeds (whether a specific schedule trips over the
// missing step is seed-dependent; each individual seed replays
// deterministically). The stale-incarnation mutation needs delete/re-insert
// churn that SmallBank never generates, so it runs a dedicated scenario.
func MutationSelfTest(seed uint64) []MutationOutcome {
	cases := []struct {
		name string
		mut  txn.Mutations
		ro   float64 // SBReadOnlyFrac: Balance reads remote accounts too
	}{
		{"skip-remote-validate", txn.Mutations{SkipRemoteValidate: true}, 0},
		{"skip-local-validate", txn.Mutations{SkipLocalValidate: true}, 0},
		{"ignore-lock-fail", txn.Mutations{IgnoreLockFail: true}, 0},
		{"skip-ro-validate", txn.Mutations{SkipROValidate: true}, 0.5},
	}
	var out []MutationOutcome
	for ci, cse := range cases {
		oc := MutationOutcome{Name: cse.name}
		for try := 0; try < 8 && !oc.Caught; try++ {
			s := cellSeed(seed^0xC0FFEE, ci*64+try)
			c := mutationCell(cse.mut, s)
			c.Opts.SBReadOnlyFrac = cse.ro
			cr := RunCell(c)
			if !cr.Check.Ok() {
				oc.Caught = true
				oc.Seed = s
				oc.Violation = cr.Check.Violations[0]
			}
		}
		out = append(out, oc)
	}

	oc := MutationOutcome{Name: "skip-inc-check"}
	if res, err := StaleIncarnationScenario(true); err == nil && !res.Ok() {
		oc.Caught = true
		oc.Violation = res.Violations[0]
	}
	out = append(out, oc)
	return out
}

// StaleIncarnationScenario exercises the stale-incarnation protocol bug:
// a coordinator reads a remote record, the record is deleted and re-inserted
// (same key, new incarnation — the fresh record reuses the freed block, so
// the coordinator's cached offset still points at live data) and pumped back
// to the exact sequence number the coordinator observed, and then the
// coordinator commits an update over its stale read. The incarnation check
// in C.2 exists precisely for this: sequence numbers restart per
// incarnation, so seq alone cannot expose the churn. With mutated=true the
// check is disabled (txn.Mutations.SkipIncCheck), the stale write commits,
// a final read-only transaction observes it, and the checker must reject
// the history; with mutated=false the protocol aborts the stale attempt,
// the retry reads fresh state, and the history must verify.
func StaleIncarnationScenario(mutated bool) (*Result, error) {
	const tbl memstore.TableID = 1
	c := cluster.New(cluster.Spec{
		Nodes: 2, Replicas: 1, MemBytes: 16 << 20, RingBytes: 1 << 16,
	})
	for _, m := range c.Machines {
		m.Store.CreateTable(tbl, memstore.TableSpec{
			Name: "churn", ValueSize: 8, ExpectedRows: 64,
		})
	}
	part := func(_ memstore.TableID, key uint64) cluster.ShardID {
		return cluster.ShardID(key % 2)
	}
	e0 := txn.NewEngine(c.Machines[0], part, txn.DefaultCosts())
	e1 := txn.NewEngine(c.Machines[1], part, txn.DefaultCosts())
	e0.Mut = txn.Mutations{SkipIncCheck: mutated}
	c.Start()
	defer c.Stop()

	ts := obs.NewTickSource()
	w := e0.NewWorker(0) // the coordinator with the stale read
	v := e1.NewWorker(0) // the churner, local to the record
	w.EnableHistory(ts)
	v.EnableHistory(ts)

	const k = 1 // key 1 -> shard 1: local to v, remote to w
	val := func(x byte) []byte { return []byte{x, 0, 0, 0, 0, 0, 0, 0} }
	update := func() error {
		return v.Run(func(tx *txn.Txn) error {
			if _, err := tx.ReadForUpdate(tbl, k); err != nil {
				return err
			}
			return tx.Write(tbl, k, val(9))
		})
	}
	churn := func(newVal byte) error {
		if err := v.Run(func(tx *txn.Txn) error { return tx.Delete(tbl, k) }); err != nil {
			return err
		}
		if err := v.Run(func(tx *txn.Txn) error { return tx.Insert(tbl, k, val(newVal)) }); err != nil {
			return err
		}
		// Pump the fresh record's sequence number back to where the stale
		// reader saw it.
		for i := 0; i < 4; i++ {
			if err := update(); err != nil {
				return err
			}
		}
		return nil
	}

	if err := v.Run(func(tx *txn.Txn) error { return tx.Insert(tbl, k, val(1)) }); err != nil {
		return nil, fmt.Errorf("check: churn setup: %w", err)
	}
	for i := 0; i < 4; i++ {
		if err := update(); err != nil {
			return nil, fmt.Errorf("check: churn setup: %w", err)
		}
	}

	churned := false
	var churnErr error
	if err := w.Run(func(tx *txn.Txn) error {
		if _, err := tx.Read(tbl, k); err != nil {
			return err
		}
		if !churned {
			churned = true
			churnErr = churn(2)
		}
		if churnErr != nil {
			return nil // surface below; commit the empty-ish txn
		}
		return tx.Write(tbl, k, val(7))
	}); err != nil {
		return nil, fmt.Errorf("check: stale writer: %w", err)
	}
	if churnErr != nil {
		return nil, fmt.Errorf("check: churn: %w", churnErr)
	}

	// The observer: without it the stale write is never read, and the
	// history stays (vacuously) serializable — a write nobody observed can
	// be serialized before the churn.
	if err := v.RunReadOnly(func(tx *txn.Txn) error {
		_, err := tx.Read(tbl, k)
		return err
	}); err != nil {
		return nil, fmt.Errorf("check: observer: %w", err)
	}

	hist := append(w.Hist.Txns(), v.Hist.Txns()...)
	sort.Slice(hist, func(i, j int) bool { return hist[i].Invoke < hist[j].Invoke })
	return Check(hist, Options{Strict: true}), nil
}
