// Package baseline declares the vocabulary shared by the comparison systems
// that need a transaction's read/write set before it runs (DrTM and Calvin;
// the restriction DrTM+R removes): how a set is declared and what a
// transaction body sees of the system running it. A body written against Ctx
// runs unchanged on every system, so a figure compares the systems and not
// two copies of the workload. Backoff is the retry delay DrTM and Silo share.
package baseline

import (
	"time"

	"drtmr/internal/memstore"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// Ref names one record of a declared read/write set.
type Ref struct {
	Table memstore.TableID
	Key   uint64
	Write bool
}

// Ctx gives a transaction body its declared records and nothing else.
type Ctx interface {
	// Get reads a declared record; the slice is the system's, not to be
	// modified.
	Get(table memstore.TableID, key uint64) ([]byte, error)
	// Put replaces a record declared with Write.
	Put(table memstore.TableID, key uint64, value []byte) error
}

// Backoff is the retry delay of the comparison systems, drawn as txn's is:
// d = (1 + rng.Intn(2^min(attempt, txn.DefaultBackoffMaxExp))) × unit,
// charged to clk. The host waits d too, as a txn worker without a scheduler
// does: a waiter that only yielded would retry many times per step of a
// holder the host keeps off the CPU, each retry charged in virtual time.
func Backoff(clk *sim.Clock, rng *sim.Rand, attempt int, unit time.Duration) {
	d := time.Duration(1+rng.Intn(1<<min(attempt, txn.DefaultBackoffMaxExp))) * unit
	clk.Advance(d)
	sim.Spin(d)
}
