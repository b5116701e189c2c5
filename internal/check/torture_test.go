package check

import (
	"strings"
	"testing"

	"drtmr/internal/bench/harness"
	"drtmr/internal/txn"
)

// TestStaleIncarnationScenario is the targeted stale-incarnation mutation
// test: with the C.2 incarnation check disabled the stale write commits and
// the checker must reject the history; with the check in place the same
// schedule aborts the stale attempt and the history verifies.
func TestStaleIncarnationScenario(t *testing.T) {
	res, err := StaleIncarnationScenario(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatalf("mutated protocol slipped past the checker: %s", res)
	}
	t.Logf("mutated: %s", res)

	res, err = StaleIncarnationScenario(false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("correct protocol flagged: %s", res)
	}
	t.Logf("control: %s", res)
}

// TestMutationSelfTest proves the checker has teeth: each deliberately
// broken protocol step must be flagged as a strict-serializability
// violation.
func TestMutationSelfTest(t *testing.T) {
	for _, oc := range MutationSelfTest(7) {
		t.Log(oc)
		if !oc.Caught {
			t.Errorf("mutation %s not caught by the checker", oc.Name)
		}
	}
}

// TestTortureSweep runs the full knob matrix — coroutines × verb batching ×
// fallback pressure, plus replicated kill cells — on the UNBROKEN protocol
// and requires every cell's history to verify. Short mode shrinks the cells
// and skips the (free-running) kill cells.
func TestTortureSweep(t *testing.T) {
	o := TortureOptions{Seed: 3, Kill: true}
	if testing.Short() {
		o.TxPerWorker = 60
		o.Coroutines = []int{4}
		o.Kill = false
	}
	rep := Torture(o)
	t.Logf("\n%s", rep)
	if !rep.Ok() {
		t.Fatalf("torture sweep found violations:\n%s", rep)
	}
	want := 10000
	if testing.Short() {
		want = 1000
	}
	if rep.TxnsChecked < want {
		t.Fatalf("sweep checked only %d transactions, want >= %d", rep.TxnsChecked, want)
	}
}

// TestTortureHotKeyCells drives the seeded hot-key cells directly: with two
// accounts per node every transaction collides, so the run exercises the
// contention manager's FIFO queue and commutative deltas (on) and the raw
// retry storm (off). Both must verify strictly serializable, and the managed
// run must not burn unboundedly more virtual time than the ablation — the
// queue converts wasted retry work into bounded waiting, it must not add a
// pathology of its own.
func TestTortureHotKeyCells(t *testing.T) {
	o := TortureOptions{Seed: 5}
	if testing.Short() {
		o.TxPerWorker = 60
	}
	var onSec, offSec float64
	for _, c := range Cells(o.defaults()) {
		if !strings.HasPrefix(c.Name, "drtmr hot-key") {
			continue
		}
		res := harness.Run(c.Opts)
		chk := Check(res.HistoryTxns(), c.CheckOpts)
		t.Logf("%s: committed=%d checked=%d virtual=%.3fs queueWaits=%d",
			c.Name, res.Committed, chk.Txns, res.VirtualSec, res.QueueWaits)
		if !chk.Ok() {
			t.Fatalf("%s violations:\n%v", c.Name, chk.Violations)
		}
		if res.Committed == 0 {
			t.Fatalf("%s committed nothing", c.Name)
		}
		switch {
		case strings.HasSuffix(c.Name, "=on"):
			onSec = res.VirtualSec
		case strings.HasSuffix(c.Name, "=off"):
			offSec = res.VirtualSec
		}
	}
	if onSec == 0 || offSec == 0 {
		t.Fatal("hot-key cells missing from the sweep")
	}
	// Generous bound: queueing must not cost more than 3x the pure-retry
	// ablation's virtual time on the same workload.
	if onSec > 3*offSec {
		t.Fatalf("contention manager virtual time unbounded: on=%.3fs vs off=%.3fs", onSec, offSec)
	}
}

// TestTortureCellReplay re-runs one deterministic cell and requires the
// identical checker verdict and commit count — the property that makes a
// violating seed reproducible.
func TestTortureCellReplay(t *testing.T) {
	cells := Cells(TortureOptions{Seed: 11, TxPerWorker: 60})
	c := cells[0]
	a, b := RunCell(c), RunCell(c)
	if a.Committed != b.Committed || a.Check.Txns != b.Check.Txns {
		t.Fatalf("replay diverged: %d/%d txns vs %d/%d",
			a.Committed, a.Check.Txns, b.Committed, b.Check.Txns)
	}
}

// TestTortureFarmCellReplay is the same replay property for the appended
// farm cells: a farm torture cell is a pure function of its embedded seed.
// It also pins the sweep layout — farm cells exist and come AFTER every
// drtmr cell, so drtmr cell indices (and therefore seeds) are unchanged by
// the protocol extension.
func TestTortureFarmCellReplay(t *testing.T) {
	cells := Cells(TortureOptions{Seed: 11, TxPerWorker: 60})
	first := -1
	for i, c := range cells {
		isFarm := strings.HasPrefix(c.Name, "farm ")
		if isFarm && first < 0 {
			first = i
		}
		if !isFarm && first >= 0 && strings.HasPrefix(c.Name, "drtmr") {
			t.Fatalf("drtmr cell %q at index %d after farm cells began at %d", c.Name, i, first)
		}
	}
	if first < 0 {
		t.Fatal("no farm cells in the default sweep")
	}
	c := cells[first]
	if c.Opts.Protocol != "farm" {
		t.Fatalf("farm cell %q carries Protocol %q", c.Name, c.Opts.Protocol)
	}
	a, b := RunCell(c), RunCell(c)
	if a.Committed != b.Committed || a.Check.Txns != b.Check.Txns {
		t.Fatalf("farm replay diverged: %d/%d txns vs %d/%d",
			a.Committed, a.Check.Txns, b.Committed, b.Check.Txns)
	}
	if !a.Check.Ok() {
		t.Fatalf("farm cell violations:\n%v", a.Check.Violations)
	}
}

// TestTortureReadOnlyCell: the sweep's last cell is the one with remote
// read-only transactions. It must verify on the protocol as is, and the same
// cell with read-only validation switched off (txn.Mutations.SkipROValidate)
// must be flagged: a Balance that read one record before a writer and the
// other after it forms a cycle with that writer.
func TestTortureReadOnlyCell(t *testing.T) {
	o := TortureOptions{Seed: 3}
	if testing.Short() {
		o.TxPerWorker = 60
	}
	cells := Cells(o)
	c := cells[len(cells)-1]
	if c.Opts.SBReadOnlyFrac == 0 || c.Opts.SBRemoteProb == 0 {
		t.Fatalf("last cell %q has no remote read-only transactions", c.Name)
	}
	if cr := RunCell(c); !cr.Check.Ok() || cr.Committed == 0 {
		t.Fatalf("%s: committed %d, violations:\n%v", c.Name, cr.Committed, cr.Check.Violations)
	}
	c.Opts.Mut = txn.Mutations{SkipROValidate: true}
	if cr := RunCell(c); cr.Check.Ok() {
		t.Fatalf("%s with read-only validation skipped passed the checker", c.Name)
	}
}
