// Package baseline declares the vocabulary shared by the comparison systems
// that need a transaction's read/write set before it runs (DrTM and Calvin;
// the restriction DrTM+R removes): how a set is declared and what a
// transaction body sees of the system running it. A body written against Ctx
// runs unchanged on every system, so a figure compares the systems and not
// two copies of the workload.
package baseline

import "drtmr/internal/memstore"

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
