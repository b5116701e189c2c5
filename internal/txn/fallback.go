package txn

import "drtmr/internal/cluster"

// Fallback handler (§6.1). RTM is best-effort: the commit-phase HTM region
// may keep aborting even without real conflicts, so after bounded retries
// the transaction commits through a pure locking protocol instead. Because
// local records are also remotely accessible, the handler cannot just take
// a process-wide mutex like single-machine HTM databases do — it must lock
// and validate local records exactly like remote ones. To avoid deadlock it
// first releases every remote lock it owns, then acquires locks for ALL
// records (local and remote) in globally sorted order.
//
// Locks on local records are acquired with loop-back RDMA CAS (§6.2): the
// NIC provides only HCA-level atomicity, so mixing CPU CAS with RDMA CAS on
// the same word would be unsound; going through the NIC for local locks too
// — even though it is two orders of magnitude slower than a local CAS — is
// the paper's explicit design choice, affordable because the fallback runs
// on <1% of transactions.

// fallbackLockAttempts bounds how often LockInOrder posts one node group's
// unacquired lock CASes before it gives up and the caller aborts.
const fallbackLockAttempts = 32

// fallbackCommit re-runs the commit under full locking and, on success,
// carries the transaction through replication, write-back and unlock.
// Preconditions: remote locks from C.1 are held (and are released here
// first); the HTM region has NOT applied any local update. It is the stage
// library run with every record in scope and everything charged to
// PhaseFallback.
func (proto drtmrProto) fallbackCommit(tx *Txn, remoteLocks []LockTarget) error {
	// Step 1: release owned remote locks.
	tx.unlockTargets(PhaseUnlock, remoteLocks)

	// Step 2: collect every record (local + remote) in sorted order.
	targets, err := tx.lockSet(scopeAll)
	if err != nil {
		return err
	}

	// Step 3: lock everything (loop-back RDMA CAS for local records).
	run := tx.lockRun()
	if !tx.w.LockInOrder(tx.id, tx.cfg, targets, run) {
		tx.unlockTargets(PhaseFallback, run.Held)
		return tx.abort(AbortLockFailed, "fallback lock failed")
	}

	// Step 4: validate the whole read set under locks.
	if err := tx.validate(validation{phase: PhaseFallback, locals: true, lockedRS: true, uncounted: true}, run); err != nil {
		tx.unlockTargets(PhaseFallback, run.Held)
		return err
	}

	// Steps 5 and 6: apply local updates without HTM, then the common tail —
	// inserts/deletes, replication, makeup, remote write-back — and release
	// every lock.
	if err := tx.fenced(); err != nil {
		tx.unlockTargets(PhaseFallback, run.Held)
		return err
	}
	tx.finish(tail{lockedLocals: true, unlock: PhaseFallback}, run.Held)
	return nil
}

// LockInOrder is the blocking lock stage, §6.1's sorted acquisition:
// targets are globally sorted; consecutive targets on the same node form one
// LockBatch, and node groups are acquired strictly in sorted order — so the
// deadlock-freedom argument of sorted acquisition is preserved while each
// group costs one CAS round-trip. Targets a group's batch misses retry (after
// the passive dangling-lock release and a backoff) in ever-smaller batches,
// up to fallbackLockAttempts batches per group. It reports whether every
// target was acquired; either way run.Held is what the caller must release.
// DrTM+R's fallback handler and the DrTM baseline's fallback both lock
// through it; id and cfg are as LockBatch's.
func (w *Worker) LockInOrder(id uint64, cfg *cluster.Config, targets []LockTarget, run *LockRun) bool {
	for lo, hi := 0, 0; lo < len(targets); lo = hi {
		for hi = lo; hi < len(targets) && targets[hi].Node == targets[lo].Node; hi++ {
		}
		todo := targets[lo:hi]
		for attempt := 0; len(todo) > 0; attempt++ {
			if attempt >= fallbackLockAttempts {
				return false
			}
			if attempt > 0 {
				w.Backoff(BackoffFallbackLock, attempt)
			}
			w.LockBatch(PhaseFallback, PhaseFallback, id, cfg, todo, run)
			if run.Err != nil {
				return false
			}
			todo = run.Missed
		}
	}
	return true
}
