package txn

// farmProto is a FaRM-style commit pipeline (FaRM, SOSP'15) behind the
// CommitProtocol interface: instead of locking the read set and relying on
// an HTM region plus seqlock makeup, it locks ONLY the write set, validates
// every read with a one-sided header READ under those locks, and makes the
// transaction durable with doorbell-batched RDMA WRITE appends to the
// per-server redo logs (Txn.replicate reuses internal/oplog's one-doorbell
// append) BEFORE any record becomes visible. Consequences:
//
//	F.1 lock write set only: RDMA CAS per unique written record, local
//	    records included via loop-back CAS (HCA atomicity, as §6.2's
//	    fallback argues) — read-set records are never locked, so a record
//	    another transaction only reads costs one verb here, not three.
//	F.2 validate: remote written records from the header READ posted behind
//	    their F.1 CAS, remote read-only ones from one doorbell batch of
//	    READs rung once F.1 holds every lock, local ones from memory.
//	    Validation REJECTS records locked by anyone else
//	    (same-node transactions included: the lock word only encodes the
//	    owner machine, so "our" word proves ownership only for records our
//	    own write set covers). This lock check is what closes the cycle two
//	    transactions could otherwise build by each reading the other's
//	    write target — seq checks alone pass for both. A foreign lock from
//	    a dead machine is passively released here (§5.2's recovery hook:
//	    farm never CASes read-set records, so without this a dangling lock
//	    on a read target would starve every farm reader forever).
//	F.3 log: replicate the full write set to every backup of every written
//	    shard plus remote written primaries. The log is durable before any
//	    install, so there is no odd-seq "uncommittable" window at all:
//	    installs go directly to the final even sequence number.
//	F.4 install: inserts/deletes apply at their final seq (committable
//	    immediately — the log already guarantees redo); local updates
//	    install non-transactionally under the held lock (the §6.1 fallback
//	    step-5 argument: execution-phase readers check the lock and back
//	    off, committers abort on it, strong atomicity kills racing HTM
//	    readers); remote updates write back through the shared C.5 WRITEs.
//	F.5 unlock the write set: CASes behind those WRITEs, one doorbell (FaRM's
//	    COMMIT-PRIMARY); then MarkCommitted watermarks the rings.
//
// There is no commit-phase HTM region, hence no HTM-capacity fallback path:
// the write-set install is plain stores under locks. Read-only transactions
// share §4.5's lock-free protocol with drtmrProto (Txn.commitReadOnly) —
// sound here for the same reason: writers bump the sequence number before
// unlocking, so a seq-stable read pair brackets any writer.
type farmProto struct{}

// ReadOnlyCommit implements CommitProtocol: the shared lock-free read-only
// validation.
func (farmProto) ReadOnlyCommit(tx *Txn) error { return tx.commitReadOnly() }

// Commit implements CommitProtocol: the F.1–F.5 pipeline above, sequenced
// from the same stage library as drtmrProto.
func (proto farmProto) Commit(tx *Txn) error {
	// --- F.1: lock the write set (only).
	tx.stage = StageLock
	if err := tx.resolveWriteOffsets(); err != nil {
		return err
	}
	locks, err := tx.lockSet(scopeWrites)
	if err != nil {
		return err
	}
	var run LockRun
	if err := tx.lockRemote(locks, &run); err != nil {
		return err
	}

	// --- F.2: validate reads (their lock words too: the read set is not
	// locked), take write bases (F.1 fetched those headers), all under the locks.
	tx.stage = StageValidate
	if err := tx.validate(validation{phase: PhaseValidate, locals: true}, &run); err != nil {
		tx.unlockTargets(PhaseUnlock, locks)
		return err
	}

	// --- F.3 redo-log append, durable before anything becomes visible, so
	// nothing after this point may abort the transaction; F.4 install at the
	// final committable seq under the held locks; F.5 unlock.
	if err := tx.fenced(); err != nil {
		tx.unlockTargets(PhaseUnlock, locks)
		return err
	}
	tx.finish(tail{logFirst: true, lockedLocals: true, unlock: PhaseUnlock}, locks)
	return nil
}
