package txn

import (
	"cmp"
	"slices"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/oplog"
	"drtmr/internal/rdma"
)

// The commit-stage library. The paper's commit phase (Fig 7 C.1–C.6), its
// §6.1 fallback handler and the FaRM-style pipeline are one sequence of
// stages — build a lock set, lock it, validate, log, install, unlock — run
// over different record sets. Each stage exists once, here, parameterised by
// the facts that really differ between pipelines; drtmrProto.Commit,
// drtmrProto.fallbackCommit and farmProto.Commit only sequence them (the
// stage × protocol table is DESIGN.md's "Protocol matrix"). The stages that
// need no parameters — replicate (R.1), makeupLocal (R.2), postWriteBack
// (C.5), applyInsertsDeletes — live in commit.go.

// LockTarget is one record to lock, addressed by the machine that hosts it
// (this machine's own records are locked through loop-back RDMA CAS), and
// Fetch, how many bytes of it to READ behind the lock CAS (0: none).
type LockTarget struct {
	Node  rdma.NodeID
	Off   uint64
	Fetch int
}

// lockScope selects which of a transaction's records a pipeline locks.
type lockScope uint8

const (
	// scopeRemote is C.1: the remote read AND write sets (§4.4 explains why
	// even reads are locked — local HTM protection does not start until
	// C.3). Local records are left to the HTM region.
	scopeRemote lockScope = iota
	// scopeAll is the §6.1 fallback: every record, local and remote.
	scopeAll
	// scopeWrites is farm's F.1: the write set only, local records included.
	// Read-set records are deliberately absent — that asymmetry against
	// scopeRemote is the FaRM-style protocol's whole point.
	scopeWrites
)

// lockSet collects the unique record addresses scope selects, sorted by
// (node, offset). Inserts have no record yet and are never locked. Local
// write-set entries that execution never resolved (blind writes) are looked
// up here, the one place that resolves them outside the HTM region; remote
// ones were resolved by resolveWriteOffsets and are skipped if still
// unresolved (a delete of a missing record). rsEntry.node and wsEntry.node
// name this machine for local records, so they address loop-back CASes as is.
// Each target's Fetch is what the validate stage reads of the remote record
// once it is locked, as the entry naming it says: a read-set record's header
// (under every scope, farm's writes-only one too), a blind in-place write's
// base, nothing where only a delete names the record. The targets live in
// the attempt's scratch, the count of those a write-set entry names too.
func (tx *Txn) lockSet(scope lockScope) ([]LockTarget, error) {
	a := tx.attempt()
	out := a.locks[:0]
	if scope != scopeWrites {
		for i := range tx.rs {
			if r := &tx.rs[i]; !r.local {
				out = append(out, LockTarget{Node: r.node, Off: r.off, Fetch: 24})
			} else if scope == scopeAll {
				out = append(out, LockTarget{Node: r.node, Off: r.off})
			}
		}
	}
	written := len(out)
	for i := range tx.ws {
		e := &tx.ws[i]
		if e.kind == wsInsert || (e.local && scope == scopeRemote) {
			continue
		}
		if e.local && e.off == 0 {
			off, ok := tx.w.E.M.Store.Table(e.table).Lookup(e.key)
			if !ok {
				if e.kind == wsDelete {
					continue // deleting a missing record is a no-op
				}
				return nil, tx.abortOn(e.node, e.table, e.key, AbortValidate, "local record vanished")
			}
			e.off = off
		}
		if e.off == 0 {
			continue
		}
		lt := LockTarget{Node: e.node, Off: e.off}
		switch {
		case e.local:
		case e.read:
			lt.Fetch = 24
		case e.inPlace():
			lt.Fetch = tx.baseLen(e)
		}
		out = append(out, lt)
	}
	a.written = len(out) - written
	// Sorted acquisition keeps lock patterns comparable across retries,
	// shortens convoys under contention, and is what makes the fallback's
	// group-by-group blocking acquisition deadlock-free. A record both read
	// and written appears twice, with one Fetch; sorting makes the copies
	// adjacent.
	slices.SortFunc(out, func(a, b LockTarget) int {
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Off, b.Off)
	})
	out = slices.CompactFunc(out, func(a, b LockTarget) bool { return a.Node == b.Node && a.Off == b.Off })
	a.locks = out
	return out, nil
}

// LockRun is one commit attempt's lock acquisition: the back-out set, what
// the last LockBatch left unacquired, and the doorbell every stage of the
// attempt posts into (Batch).
type LockRun struct {
	Held []LockTarget // every CAS won so far — what a back-out (or the final unlock) must release
	// Fetched[i] is the READ behind the CAS that won Held[i] (nil: none needed).
	// One behind a CAS that lost is dropped: the holder may yet rewrite the record.
	Fetched []*rdma.Pending
	Missed  []LockTarget // targets the last batch lost to another holder
	Holder  uint64       // the lock word that beat Missed[0]
	Err     error        // the last batch's last verb error: the target machine is dead
	ErrAt   rdma.NodeID

	b      *rdma.Batch
	pend   []*rdma.Pending // LockBatch's lock CAS and the READ behind it, by target
	refill []LockTarget    // the buffer the next LockBatch refills Missed into
}

// Batch is the attempt's doorbell, set up for w. Its slots stay valid across
// the attempt's later doorbells — validate reads Fetched after ringing its
// own, DrTM's shrinking phase after its fallback's locks — until Reset.
func (run *LockRun) Batch(w *Worker) *rdma.Batch {
	if run.b == nil {
		run.b = rdma.NewBatch(&w.Clk)
	}
	run.b.SetSequential(w.E.DisableVerbBatching)
	run.b.SetRecorder(w.Rec)
	return run.b
}

// Reset ends the attempt: run is emptied and every slot and READ buffer its
// doorbell handed out goes back to it, for the next attempt to reuse.
func (run *LockRun) Reset() {
	run.Held, run.Fetched, run.Missed, run.Err = run.Held[:0], run.Fetched[:0], run.Missed[:0], nil
	if run.b != nil {
		run.b.Reset()
	}
}

// baseLen is what an in-place write's base fetch covers: the header, or the
// whole record for a delta (its image is the current value plus the adds).
func (tx *Txn) baseLen(e *wsEntry) int {
	if e.kind == wsDelta {
		return tx.w.E.M.Store.Table(e.table).RecBytes
	}
	return 24
}

// attempt is the doorbell and commit scratch of a transaction's attempts
// (DESIGN.md "Verbs a transaction posts"): every stage posts into run's
// batch, and the stages' slices keep their capacity from one attempt to the
// next. A Txn makes its attempt when a stage first needs one, empties it in
// place when an attempt ends and keeps it for life, recycled with it, so
// siblings never share one.
type attempt struct {
	run     LockRun
	locks   []LockTarget    // lockSet's targets
	written int             // how many of them a write-set entry names
	slots   []*rdma.Pending // validate's READs by read-set, then write-set position; commitReadOnly's
	nodes   []rdma.NodeID   // replicate's targets
	toks    []ringToken     // replicate's ring entries
	recs    []oplog.Rec     // logRecords' payload
	entry   []byte          // replicate's log entry, encoded from recs
	img     []byte          // Txn.scratch

	// Conflict identity captured inside the commit HTM region: the region
	// communicates failures through abort codes only (htx.Abort unwinds), so
	// localCommitBody stamps the conflicting record here before aborting and
	// localHTMCommit attaches it to the txn.Error it builds outside.
	confKey   uint64
	confTable memstore.TableID
	confSet   bool
}

// attempt returns the transaction's attempt scratch, made on first use.
func (tx *Txn) attempt() *attempt {
	if tx.at == nil {
		tx.at = new(attempt)
	}
	return tx.at
}

// endAttempt empties the attempt scratch once the attempt has ended,
// committed or aborted, for the transaction's next attempt.
func (tx *Txn) endAttempt() {
	if a := tx.at; a != nil {
		a.run.Reset()
		clear(a.recs) // their values are the transaction's, not the scratch's
	}
}

// scratch returns the attempt's record-image scratch, n bytes long: for an
// image that is dropped before the transaction yields (a local read's
// snapshot, whose value is copied out, the images built inside an HTM
// region, a locked install's plain stores).
func (tx *Txn) scratch(n int) []byte {
	a := tx.attempt()
	if cap(a.img) < n {
		a.img = make([]byte, n)
	}
	return a.img[:n]
}

// batch is the attempt's doorbell, set up for the worker's knobs.
func (tx *Txn) batch() *rdma.Batch { return tx.attempt().run.Batch(tx.w) }

// lockRun is the attempt's LockRun, emptied for a new lock set; the slots
// of its earlier doorbells stay valid.
func (tx *Txn) lockRun() *LockRun {
	run := &tx.attempt().run
	run.Held, run.Fetched, run.Missed, run.Err = run.Held[:0], run.Fetched[:0], run.Missed[:0], nil
	return run
}

// LockBatch try-locks every target with one doorbell batch of RDMA CASes
// charged to phase, and sorts the results into run. Behind each CAS rides the
// READ of the target's first Fetch bytes (its verb counted to fetchPhase): a
// queue pair executes in post order, so behind a CAS that swapped it sees the
// record as it stays until the holder unlocks, and behind one that lost it is
// one wasted message. Try-lock semantics keep the batch deadlock-free: no
// verb ever waits. The trade-off against a sequential loop is that all CASes
// post before any result is seen, so under contention the batch may briefly
// take (then release) locks a sequential early-exit would never have touched
// — accepted for one round-trip of latency per batch. id is the transaction
// the doorbell's trace span names; cfg is the configuration it runs under.
//
// This is the ONLY function that posts lock-acquire CASes and the only scan
// over their results — C.1 and F.1 (lockRemote), the §6.1 loop (LockInOrder:
// DrTM+R's fallback handler and the DrTM baseline's fallback) and the DrTM
// baseline's growing phase all lock through it. The discipline the scan
// must keep (TestProtocolLockBackoutReleasesAll holds it): the batch has
// already executed when the first result is read, so CASes posted after a
// failed verb may still have swapped — the scan runs to completion and
// records EVERY won lock in run.Held before the caller acts on any failure.
// Exiting early leaks the locks won later in the batch past the back-out
// set, permanently if their would-be holder is alive (commit c08a886 and its
// two re-occurrences, when this loop existed three times). A target lost to
// a lock whose owner left the configuration is passively released (§5.2) so
// that the caller's retry can win it.
func (w *Worker) LockBatch(phase, fetchPhase CommitPhase, id uint64, cfg *cluster.Config, targets []LockTarget, run *LockRun) {
	myWord := memstore.LockWord(uint32(w.E.M.ID))
	b := run.Batch(w)
	run.pend = run.pend[:0]
	for _, lt := range targets {
		var read *rdma.Pending
		cas := b.PostCAS(w.QP(lt.Node), lt.Off+memstore.LockOff, 0, myWord)
		if lt.Fetch > 0 {
			read = b.PostRead(w.QP(lt.Node), lt.Off, lt.Fetch)
		}
		run.pend = append(run.pend, cas, read)
	}
	reads := b.Len() - len(targets)
	_ = w.ExecBatch(phase, id, b)
	w.MoveVerbs(phase, fetchPhase, reads)

	// targets may alias run.Missed (a retry): refill the other buffer.
	run.Missed, run.refill, run.Err = run.refill[:0], run.Missed, nil
	run.Held = slices.Grow(run.Held, len(targets))
	run.Fetched = slices.Grow(run.Fetched, len(targets))
	for i, lt := range targets {
		switch cas := run.pend[2*i]; {
		case cas.Err != nil:
			run.Err, run.ErrAt = cas.Err, lt.Node
		case cas.Swapped:
			run.Held = append(run.Held, lt)
			run.Fetched = append(run.Fetched, run.pend[2*i+1])
		default:
			if len(run.Missed) == 0 {
				run.Holder = cas.Prev
			}
			w.maybeReleaseDangling(cfg, lt.Node, lt.Off, cas.Prev)
			run.Missed = append(run.Missed, lt)
		}
	}
}

// header returns the READ the lock stage fetched behind the CAS that won the
// remote record at (node, off), or nil if this attempt does not hold its lock.
func (run *LockRun) header(node rdma.NodeID, off uint64) *rdma.Pending {
	for i, lt := range run.Held {
		if lt.Node == node && lt.Off == off {
			return run.Fetched[i]
		}
	}
	return nil
}

// lockRemote is the non-blocking lock stage (C.1, F.1): one LockBatch over
// the whole set, then one retry batch over whatever it missed — a dangling
// lock from a dead machine was passively released by the first pass (§5.2).
// Any remaining failure releases the acquired subset and aborts.
func (tx *Txn) lockRemote(locks []LockTarget, run *LockRun) error {
	todo := locks
	for pass := 0; pass < 2 && len(todo) > 0; pass++ {
		tx.w.LockBatch(PhaseLock, PhaseValidate, tx.id, tx.cfg, todo, run)
		if run.Err != nil {
			tx.unlockTargets(PhaseLock, run.Held)
			return tx.abortAt(run.ErrAt, AbortNodeDead, "lock verb")
		}
		todo = run.Missed
	}
	if len(todo) == 0 {
		return nil
	}
	if tx.w.E.Mut.IgnoreLockFail {
		// Mutation: pretend every lock was won and barrel on unlocked. The
		// unlock CASes on never-acquired records fail harmlessly (they
		// expect our lock word), so the damage is pure protocol: two
		// committers write back the same record concurrently.
		return nil
	}
	tx.unlockTargets(PhaseLock, run.Held)
	lt := todo[0]
	if tbl, key, ok := tx.keyAt(lt.Node, lt.Off); ok {
		return tx.abortOn(lt.Node, tbl, key, AbortLockFailed, "record held").saw(run.Holder)
	}
	return tx.abortAt(lt.Node, AbortLockFailed, "record held").saw(run.Holder)
}

// unlockTargets releases the given locks with one doorbell batch of CASes,
// charged to phase — the abort back-outs: C.1 for a failed lock batch, C.6 or
// the fallback phase after a failed validation. A commit unlocks in finish.
func (tx *Txn) unlockTargets(phase CommitPhase, locks []LockTarget) {
	if len(locks) == 0 {
		return
	}
	b := tx.batch()
	tx.w.PostUnlocks(b, locks)
	_ = tx.w.ExecBatch(phase, tx.id, b)
}

// PostUnlocks posts one lock-release CAS per target.
func (w *Worker) PostUnlocks(b *rdma.Batch, locks []LockTarget) {
	myWord := memstore.LockWord(uint32(w.E.M.ID))
	for _, lt := range locks {
		b.PostCAS(w.QP(lt.Node), lt.Off+memstore.LockOff, myWord, 0)
	}
}

// validation parameterises the validate stage by what differs between the
// pipelines that run it.
type validation struct {
	// phase is charged the header READs of records this attempt has not locked.
	phase CommitPhase
	// locals covers local records too, read straight from memory. drtmr's
	// C.2 leaves them to the HTM region (C.3 validates, C.4 fetches bases).
	locals bool
	// lockedRS says the read set is locked, so its lock words need no look.
	// Without it (farm locks writes only) validation REJECTS read-set records
	// locked by anyone else. That lock check is what closes the cycle two
	// transactions could otherwise build by each reading the other's write
	// target — sequence checks alone pass for both.
	lockedRS bool
	// uncounted is the §6.1 handler's cost accounting (DESIGN.md known
	// deltas 7 and 8): its local header checks charge no Costs.PerValidate
	// and its validation READs are not counted in Stats.ROVerbs.
	uncounted bool
}

// seqValidates applies Table 4's read-validation condition.
func (tx *Txn) seqValidates(seen, cur uint64) bool {
	if tx.w.E.Replicated {
		return memstore.ClosestCommittable(seen) == cur
	}
	return seen == cur
}

// validate is the validation stage (C.2, F.2, fallback step 4), run under
// the pipeline's locks: re-check every covered read-set record (incarnation,
// sequence number, and the lock word unless the read set is locked) and fetch
// the base sequence number and incarnation of every covered in-place write —
// from the read-set header where the record was also read, from a fetch of
// its own for blind writes. A remote record run holds brought its header with
// its lock; the others (farm's read-only records) share one doorbell batch
// here, after every lock is held — any earlier reopens the cycle lockedRS
// describes. Local records read memory directly. The incarnation is cached on
// the write-set entry so C.5 never re-reads it, and deltas are folded here,
// where the current value can no longer move.
func (tx *Txn) validate(v validation, run *LockRun) error {
	w := tx.w
	mut := &w.E.Mut
	myWord := memstore.LockWord(uint32(w.E.M.ID))

	// One slot per read-set entry, then one per write-set entry, sized on
	// the first remote record.
	var pend []*rdma.Pending
	b := tx.batch()
	post := func(slot int, node rdma.NodeID, off uint64, n int) {
		if pend == nil {
			a := tx.attempt()
			a.slots = slices.Grow(a.slots[:0], len(tx.rs)+len(tx.ws))[:len(tx.rs)+len(tx.ws)]
			pend = a.slots
		}
		if pend[slot] = run.header(node, off); pend[slot] == nil {
			pend[slot] = b.PostRead(w.QP(node), off, n)
		}
	}
	for i := range tx.rs {
		if r := &tx.rs[i]; !r.local {
			post(i, r.node, r.off, 24)
		}
	}
	for i := range tx.ws {
		e := &tx.ws[i]
		if e.local || !e.inPlace() || e.off == 0 || e.read {
			continue // not fetched remotely, or the base comes from the read-set header
		}
		post(len(tx.rs)+i, e.node, e.off, tx.baseLen(e))
	}
	_ = w.ExecBatch(v.phase, tx.id, b)

	var hdr [24]byte
	for i := range tx.rs {
		r := &tx.rs[i]
		if r.local && !v.locals {
			continue
		}
		e := tx.findWS(r.table, r.key)
		var h []byte
		skip := mut.SkipRemoteValidate
		if r.local {
			h = w.E.M.Eng.ReadNonTx(r.off, 24, hdr[:])
			skip = mut.SkipLocalValidate
			if !v.uncounted {
				w.Clk.Advance(w.E.Costs.PerValidate)
			}
		} else {
			p := pend[i]
			if p.Err != nil {
				return tx.abortAt(r.node, AbortNodeDead, "validate verb")
			}
			h = p.Data
			if e == nil && !v.uncounted {
				w.Stats.ROVerbs++ // validation READ on a record we only read
			}
		}
		inc, cur, lockW := memstore.RecInc(h), memstore.RecSeq(h), memstore.RecLock(h)
		// Our own lock word proves ownership only where our write set covers
		// the record: the word encodes the machine, not the transaction — a
		// sibling worker's lock looks identical.
		if !v.lockedRS && lockW != 0 && !(lockW == myWord && e != nil) && !skip {
			// Recovery hook: a dangling lock from a machine outside the
			// configuration is passively released so the NEXT attempt can
			// pass — a pipeline that never CASes read-set records has no
			// other chance, and every reader of the record would starve.
			w.maybeReleaseDangling(tx.cfg, r.node, r.off, lockW)
			return tx.abortOn(r.node, r.table, r.key, AbortLocked, "read-set record locked").saw(lockW)
		}
		if inc != r.inc && !skip && !mut.SkipIncCheck {
			return tx.abortOn(r.node, r.table, r.key, AbortValidate, "inc changed").saw(inc)
		}
		if !tx.seqValidates(r.seq, cur) && !skip {
			return tx.abortOn(r.node, r.table, r.key, AbortValidate, "seq changed").saw(cur)
		}
		if e != nil && e.inPlace() {
			tx.setBase(e, cur, inc)
			if e.kind == wsDelta {
				// The sequence check just passed under the lock, so the
				// execution-phase copy is the current value: fold over it.
				e.buf = tx.fill(e.buf, r.val)
				e.materialize()
			}
		}
	}
	// Blind writes: the base was fetched under the lock (the record cannot
	// move under us), through a batch for remote records.
	for i := range tx.ws {
		e := &tx.ws[i]
		if !e.inPlace() || e.off == 0 || (e.local && !v.locals) || e.read {
			continue
		}
		tbl := w.E.M.Store.Table(e.table)
		var h []byte
		if e.local {
			h = w.E.M.Eng.ReadNonTx(e.off, tx.baseLen(e), hdr[:0])
		} else {
			p := pend[len(tx.rs)+i]
			if p.Err != nil {
				return tx.abortAt(e.node, AbortNodeDead, "ws fetch verb")
			}
			h = p.Data
		}
		cur := memstore.RecSeq(h)
		if w.E.Replicated && !memstore.SeqIsCommittable(cur) {
			// Table 4 C.2 R_WS: cannot overwrite an unreplicated record.
			return tx.abortOn(e.node, e.table, e.key, AbortValidate, "ws uncommittable").saw(cur)
		}
		tx.setBase(e, cur, memstore.RecInc(h))
		if e.kind == wsDelta {
			// h is the full record. It is locked, but a PRIOR local commit's
			// makeup flip on its host can still race a remote fetch: a torn
			// value must not become the delta base.
			if !memstore.VersionsConsistent(h) {
				return tx.abortOn(e.node, e.table, e.key, AbortValidate, "delta base torn")
			}
			tx.deltaBuf(e, tbl.Spec.ValueSize)
			e.buf = memstore.GatherValueInto(e.buf, h, tbl.Spec.ValueSize)
			e.materialize()
		}
	}
	return nil
}

// writeLocalLocked installs every local in-place write with plain stores, no
// HTM region (fallback step 5, farm F.4). Safe because the records are
// locked: local execution-phase readers check the lock and back off, local
// committers' C.4 checks the lock and aborts, remote committers cannot take
// the lock, and strong atomicity aborts any in-flight HTM reader the store
// races with. final picks the sequence number: the final committable one when
// the redo log is already durable, else base+1 — odd under replication until
// R.2's makeup flips it.
func (tx *Txn) writeLocalLocked(final bool) {
	w := tx.w
	for i := range tx.ws {
		e := &tx.ws[i]
		if !e.local || !e.inPlace() || e.off == 0 {
			continue
		}
		seq := e.finSeq
		if !final {
			seq = e.baseSeq + 1
		}
		tbl := w.E.M.Store.Table(e.table)
		img := memstore.BuildRecordImageInto(tx.scratch(tbl.RecBytes), tbl.Spec.ValueSize, e.buf, e.inc, seq)
		w.E.M.Eng.WriteNonTx(e.off+8, img[8:])
	}
}

// tail parameterises finish.
type tail struct {
	// logFirst makes the redo log durable BEFORE anything is installed
	// (farm F.3), so installs go straight to the final committable sequence
	// number: no odd-seq "uncommittable" window, no makeup. Without it the
	// log is written after the local install (§5.1's optimistic replication)
	// and R.2 flips local records committable afterwards.
	logFirst bool
	// lockedLocals says no HTM region applied the local write set: the local
	// records are locked instead, and are installed here with plain stores.
	lockedLocals bool
	// unlock is the phase the final unlock batch is charged to.
	unlock CommitPhase
}

// finish carries a validated transaction from its commit point to the end:
// local install if still due, inserts/deletes, R.1 replication and R.2
// makeup (or the log first), ONE doorbell batch of C.5's write-back WRITEs
// with held's unlock CASes behind them (a queue pair executes in post order:
// a record's image has landed when its lock word clears), and the rings'
// truncation watermark. Nothing here may abort the transaction — it is
// committed (or, with logFirst, about to be durably logged); failed machines
// are only degraded around.
func (tx *Txn) finish(t tail, held []LockTarget) {
	w := tx.w
	var toks []ringToken
	if w.E.Replicated && t.logFirst {
		toks = tx.replicate()
	}
	if t.lockedLocals {
		tx.writeLocalLocked(t.logFirst)
	}
	// Fresh inserts start uncommittable (seq 1) under replication until
	// R.2/C.5 flip them — unless the log is already durable, when they are
	// born at their final sequence number.
	initialSeq := uint64(0)
	if w.E.Replicated {
		initialSeq = 1
		if t.logFirst {
			initialSeq = tx.finalSeq(0)
		}
	}
	tx.applyInsertsDeletes(initialSeq)
	if w.E.Replicated && !t.logFirst {
		toks = tx.replicate()
		tx.makeupLocal()
	}
	b := tx.batch()
	tx.postWriteBack(b)
	writes := b.Len()
	w.PostUnlocks(b, held)
	phase := t.unlock
	if len(held) == 0 {
		phase = PhaseWriteBack // a remote insert's seq flip, nothing to unlock
	}
	_ = w.ExecBatch(phase, tx.id, b)
	w.MoveVerbs(phase, PhaseWriteBack, writes)
	// Truncation watermark: these log entries' transactions are complete.
	for _, tk := range toks {
		w.E.M.LogWriter(tk.node).MarkCommitted(tk.tok.End())
	}
}
