package txn

import (
	"errors"
	"fmt"
	"strconv"

	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
)

// Abort reasons (for stats and retry policy).
type AbortReason uint8

const (
	AbortNone AbortReason = iota
	// AbortLockFailed: C.1 could not lock a remote record.
	AbortLockFailed
	// AbortValidate: read validation failed (C.2, C.3, or read-only).
	AbortValidate
	// AbortHTM: the commit-phase HTM region overflowed its capacity, or
	// kept aborting until the bounded retries ran out, before the fallback
	// handler succeeded.
	AbortHTM
	// AbortLocked: execution phase found a record locked for too long.
	AbortLocked
	// AbortNodeDead: a verb hit a dead machine (epoch change pending).
	AbortNodeDead
	// AbortStale: a cached location or incarnation went stale repeatedly.
	AbortStale
	// AbortServerBusy: the serve-layer admission controller shed the request
	// before it reached a worker (queue-depth watermark or deadline-aware
	// overload estimate). Never retried by the engine: the client decides.
	AbortServerBusy
	// AbortDeadline: the request's deadline expired while it waited in the
	// serve-layer admission queue, so it was dropped before execution.
	AbortDeadline

	// NumAbortReasons counts the reasons (obs.NumReasons must be >= this).
	NumAbortReasons
)

// reasonNames names the abort reasons.
var reasonNames = [NumAbortReasons]string{
	AbortNone: "none", AbortLockFailed: "lock-failed", AbortValidate: "validate",
	AbortHTM: "htm", AbortLocked: "locked", AbortNodeDead: "node-dead", AbortStale: "stale",
	AbortServerBusy: "server-busy", AbortDeadline: "deadline",
}

func (r AbortReason) String() string {
	if r < NumAbortReasons {
		return reasonNames[r]
	}
	return "AbortReason(" + strconv.Itoa(int(r)) + ")"
}

// Lifecycle stages for abort attribution and phase trace events: WHERE in
// the transaction an abort struck (obs.AbortMatrix stage axis, obs.EvPhase /
// EvTxnAbort Detail). StageExec is the execution phase; each commit phase
// (CommitPhase) has its stage (phaseStages), and C.3+C.4's region has one.
const (
	StageExec uint8 = iota
	StageLock
	StageValidate
	// StageLocalHTM: C.3+C.4's HTM region, and drtmr's C.3 check before C.1
	// (checkLocalWrites) — its aborts and its phase span.
	StageLocalHTM
	StageLog
	StageWriteBack
	StageUnlock
	StageROValidate
	StageFallback
	// StageQueue: waiting for hot-key FIFO admission (contention manager) —
	// the stage of queue-wait trace spans and queue-timeout aborts.
	StageQueue
	// StageAdmission: the serve-layer admission controller, before any
	// engine worker touched the request (ServerBusy/Deadline sheds).
	StageAdmission
	NumStages
)

// stageNames names the stage codes; a commit phase is named by its stage's.
var stageNames = [NumStages]string{
	StageExec: "exec", StageLock: "C.1-lock", StageValidate: "C.2-validate",
	StageLocalHTM: "C.3+4-htm", StageLog: "R.1-log", StageWriteBack: "C.5-writeback",
	StageUnlock: "C.6-unlock", StageROValidate: "ro-validate", StageFallback: "fallback",
	StageQueue: "queue", StageAdmission: "admission",
}

// StageName names a stage code (abort-matrix summaries, trace export).
func StageName(s uint8) string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage(" + strconv.Itoa(int(s)) + ")"
}

// phaseStages maps a commit-pipeline phase to its lifecycle stage code.
var phaseStages = [NumPhases]uint8{
	PhaseLock: StageLock, PhaseValidate: StageValidate, PhaseLog: StageLog,
	PhaseWriteBack: StageWriteBack, PhaseUnlock: StageUnlock,
	PhaseROValidate: StageROValidate, PhaseFallback: StageFallback,
}

// Error is a transaction abort. Transactions signalling Error from Run are
// retried according to the reason. Stage and Site attribute the abort for
// the obs.AbortMatrix: WHERE in the lifecycle it struck and WHICH node's
// record triggered it (the aborting worker's own node for local causes).
//
// An abort is plain data: building one costs its allocation and nothing
// else, because the retry loop drops almost every one unread. Only Error
// formats, when someone reads it.
type Error struct {
	Reason AbortReason
	Stage  uint8
	Site   uint16
	// Table/Key name the record whose conflict triggered the abort, when the
	// abort site knows it (HasKey guards validity — key 0 is a legal key).
	// They feed the contention manager's hot-key detector and the per-key
	// abort counter behind Result.AbortSummary's hot-keys term.
	Table  memstore.TableID
	Key    uint64
	HasKey bool
	// Detail labels the check that failed. It is a string constant, never
	// formatted: a variable fact goes in Seen.
	Detail string
	// Seen is the one variable fact the check saw beyond the fields above,
	// 0 when it has none: the holder's lock word, the record's new sequence
	// number, or the queue depth or wait (ns) a shed compared with its limit.
	Seen uint64
}

func (e *Error) Error() string {
	s := fmt.Sprintf("txn: abort (%s@%s n%d)", e.Reason, StageName(e.Stage), e.Site)
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	if e.HasKey {
		s += fmt.Sprintf(", record %d/%d", e.Table, e.Key)
	}
	if e.Seen != 0 {
		s += fmt.Sprintf(", seen %d", e.Seen)
	}
	return s
}

// asError finds the first *Error in err's chain of wraps, without errors.As's
// target, which would move to the heap on every abort.
func asError(err error) (*Error, bool) {
	for ; err != nil; err = errors.Unwrap(err) {
		if te, ok := err.(*Error); ok {
			return te, true
		}
	}
	return nil, false
}

// abort builds an abort attributed to the worker's own node (local causes:
// HTM exhaustion, local validation, locked local records).
func (tx *Txn) abort(r AbortReason, label string) *Error {
	return tx.abortAt(tx.w.E.M.ID, r, label)
}

// abortAt builds an abort attributed to node — the site whose record
// triggered it — at the transaction's current lifecycle stage.
func (tx *Txn) abortAt(node rdma.NodeID, r AbortReason, label string) *Error {
	return &Error{Reason: r, Stage: tx.stage, Site: uint16(node), Detail: label}
}

// abortOn is abortAt carrying the conflicting record's identity, which feeds
// the contention manager's hot-key detector and the per-key abort counter.
func (tx *Txn) abortOn(node rdma.NodeID, table memstore.TableID, key uint64, r AbortReason, label string) *Error {
	e := tx.abortAt(node, r, label)
	e.Table, e.Key, e.HasKey = table, key, true
	return e
}

// abortConflict is abort keyed with the conflict identity the HTM region
// stamped (setConflict) before its explicit abort, when it stamped one.
func (tx *Txn) abortConflict(r AbortReason, label string) *Error {
	a := tx.attempt()
	if !a.confSet {
		return tx.abort(r, label)
	}
	return tx.abortOn(tx.w.E.M.ID, a.confTable, a.confKey, r, label)
}

// saw records in the abort the one variable fact its check saw (Seen).
func (e *Error) saw(v uint64) *Error {
	e.Seen = v
	return e
}
