package txn

import (
	"sort"

	"drtmr/internal/rdma"
)

// CommitProtocol is a pluggable commit pipeline. The execution layer —
// read/write sets, deltas, the coroutine scheduler, contention gates — is
// protocol-agnostic: user code runs Txn.Read/Write/Add/Insert/Delete exactly
// the same way regardless of which protocol later commits the transaction.
// A protocol owns everything from Txn.Commit on: locking, validation,
// replication/logging, install, write-back and unlock, plus whatever
// fallback interplay it needs.
//
// Contract (what the rest of the system relies on):
//
//   - Commit is called on read-write transactions with a non-empty write
//     set; ReadOnlyCommit on read-only (or write-free) ones. Either returns
//     nil once the transaction is durably committed under the engine's
//     replication mode, or a *Error carrying full Reason/Stage/Site (and
//     Table/Key when the conflicting record is known) abort attribution —
//     the abortattr analyzer enforces the attribution statically.
//   - On abort, no lock may stay held and no write may be visible: the
//     retry loop re-executes from scratch.
//   - A committed transaction's records must carry their final sequence
//     number (Txn.finalSeq) so histories stay comparable across protocols
//     and the strict-serializability checker needs no per-protocol cases.
//   - Replicated engines must make log entries durable (Txn.replicate)
//     before a record version becomes committable to OTHER transactions,
//     and must tolerate the §5.2 recovery obligations: dangling locks left
//     by dead machines are released passively (Worker.maybeReleaseDangling)
//     and log ring truncation happens only after MarkCommitted.
//   - Implementations must be stateless values: the one instance in
//     protocols is shared by every engine and worker concurrently.
type CommitProtocol interface {
	// Commit runs the full read-write commit pipeline.
	Commit(tx *Txn) error
	// ReadOnlyCommit validates a read-only transaction.
	ReadOnlyCommit(tx *Txn) error
}

// DefaultProtocol is the protocol an Engine with an empty Protocol field
// uses: the paper's DrTM+R seqlock-replication pipeline.
const DefaultProtocol = "drtmr"

// protocols holds every commit protocol under its name — the value of
// Knobs.Protocol and the harness -protocol knob.
var protocols = map[string]CommitProtocol{
	DefaultProtocol: drtmrProto{},
	"farm":          farmProto{},
}

// ProtocolByName resolves a commit protocol by name.
func ProtocolByName(name string) (CommitProtocol, bool) {
	p, ok := protocols[name]
	return p, ok
}

// Protocols lists the protocol names, sorted — the conformance suite
// iterates it so a new protocol gets correctness coverage for free.
func Protocols() []string {
	names := make([]string, 0, len(protocols))
	for n := range protocols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// protocol resolves this worker's commit protocol: the per-worker override
// (set by the serve layer per stored procedure) wins over the engine-wide
// Knobs.Protocol, which defaults to DefaultProtocol. An unknown name
// panics: it is a configuration error that must fail loudly, not a runtime
// abort.
func (w *Worker) protocol() CommitProtocol {
	name := w.Protocol
	if name == "" {
		name = w.E.Protocol
	}
	if name == "" {
		name = DefaultProtocol
	}
	p, ok := protocols[name]
	if !ok {
		panic("txn: unknown commit protocol " + name)
	}
	return p
}

// Commit dispatches to the worker's commit protocol. Read-only transactions
// (and read-write ones that wrote nothing) take the protocol's read-only
// path; everything else runs the full pipeline. The attempt ends here,
// committed or aborted, and its scratch is emptied for the next.
func (tx *Txn) Commit() error {
	defer tx.endAttempt()
	if tx.readOnly || len(tx.ws) == 0 {
		return tx.answer(nil)
	}
	tx.w.commits.Add(1)
	defer tx.w.commits.Add(-1)
	if err := tx.fenced(); err != nil {
		return err
	}
	return tx.w.protocol().Commit(tx)
}

// answer is the protocol's read-only commit: it returns reply once the
// attempt's reads validate, or the abort that a stale read set is. Commit
// answers nil for a transaction that wrote nothing, and runLoop answers a
// body's user error, so a caller hears that error only from an attempt that
// got as far as asking to commit (FaRM's rule) and a stale one is retried.
func (tx *Txn) answer(reply error) error {
	tx.stage = StageROValidate
	if err := tx.w.protocol().ReadOnlyCommit(tx); err != nil {
		return err
	}
	return reply
}

// fenced aborts a commit once a configuration newer than the transaction's
// is committed: its locks on a dead primary no longer exclude the promoted
// primary's writers. Commit checks on entry, each protocol again just before
// its point of no return.
func (tx *Txn) fenced() error {
	if tx.w.E.M.Cluster().Coord.Epoch() != tx.cfg.Epoch {
		return tx.abort(AbortNodeDead, "configuration changed before commit")
	}
	return nil
}

// countWakeup records a remote-CPU delivery (RPC or redo-log append) bound
// for node if node is a pure read participant of this transaction: it hosts
// read-set records but none of the write set, and owes the transaction no
// replication duty (not a primary or backup of any written shard). Both
// protocols derive their delivery targets from the write set alone, so the
// counter stays zero — the protocol-matrix figure reports it as a measured
// invariant rather than an assumption (FaRM's defining property: read-only
// participants never wake a remote CPU).
func (tx *Txn) countWakeup(node rdma.NodeID) {
	w := tx.w
	self := w.E.M.ID
	cfg := w.E.M.Config()
	for i := range tx.ws {
		e := &tx.ws[i]
		n := e.node
		if e.local {
			n = self
		}
		if n == node {
			return
		}
		if int(e.shard) < cfg.NumShards() {
			if cfg.PrimaryOf(e.shard) == node {
				return
			}
			for _, b := range cfg.BackupsOf(e.shard) {
				if b == node {
					return
				}
			}
		}
	}
	for i := range tx.rs {
		if !tx.rs[i].local && tx.rs[i].node == node {
			w.Stats.ROWakeups++
			return
		}
	}
}
