package txn

import (
	"errors"
	"slices"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/oplog"
	"drtmr/internal/rdma"
)

// htmRetries bounds commit-phase HTM attempts before the fallback handler
// (§6.1); a capacity abort skips the rest (htmRetryAfter). The paper
// reports the fallback firing on <1% of transactions.
const htmRetries = 16

// htmRetry is what a failed HTM region's retry needs, by its abort cause.
type htmRetry int

const (
	htmRetryNow     htmRetry = iota // nothing to wait for: retry at once
	htmRetryBackoff                 // wait for the holder, then retry
	htmRetryNever                   // the same footprint aborts again
)

// htmRetryAfter reads RTM's abort status the way §6.1's bounded retry can
// use it. A spurious abort (an interrupt, a TLB shootdown) has no holder to
// wait for, so the retry goes at once; a capacity abort repeats on every
// retry of the same footprint; a conflict, or an explicit abort on a locked
// or changed record, waits out its holder. An error that is not an HTM
// abort backs off too. The htm.Txn methods return *htm.AbortError
// unwrapped, so a type assertion finds it (errors.As would move a target
// to the heap on every failed attempt; asError is the same rule for
// *Error).
func htmRetryAfter(err error) htmRetry {
	ae, ok := err.(*htm.AbortError)
	if !ok {
		return htmRetryBackoff
	}
	switch ae.Cause {
	case htm.CauseSpurious:
		return htmRetryNow
	case htm.CauseCapacity:
		return htmRetryNever
	case htm.CauseConflict, htm.CauseExplicit:
		return htmRetryBackoff
	}
	return htmRetryBackoff
}

// drtmrProto is the paper's hybrid HTM+RDMA commit pipeline (Fig 7) behind
// the CommitProtocol interface — the default protocol. It locks BOTH read
// and write sets remotely (local HTM protection does not start until C.3),
// validates under those locks, runs one HTM region over local metadata, and
// under replication installs local updates at an odd "uncommittable"
// sequence number until the log entries are durable (§5.1's optimistic
// replication), flipping them even in R.2.
type drtmrProto struct{}

// Commit runs the six-step commit phase (Fig 7) plus optimistic replication
// (§5.1):
//
//	    C.3's test on local records read and written, if C.1 has a remote target
//	C.1 lock remote read+write sets with RDMA CAS            ┐ one doorbell: each
//	C.2 validate remote read set (+ remote write base seqs)  ┘ READ behind its CAS
//	C.3 validate local read set   ┐ one HTM region
//	C.4 update local write set    ┘ (fallback handler after retries)
//	    apply inserts/deletes (local + shipped to hosts)
//	R.1 write full-write-set log entries to every replica ring
//	R.2 makeup: flip local records to committable (+1 → even)
//	C.5 write back remote writes (committable seq), RDMA WRITE  ┐ one doorbell:
//	C.6 unlock remote records with RDMA CAS                     ┘ CASes last
func (proto drtmrProto) Commit(tx *Txn) error {
	w := tx.w

	// --- C.1: lock remote records, read and write sets both.
	tx.stage = StageLock
	if err := tx.resolveWriteOffsets(); err != nil {
		return err
	}
	locks, err := tx.lockSet(scopeRemote)
	if err != nil {
		return err
	}
	if len(locks) > 0 {
		if err := tx.checkLocalWrites(); err != nil {
			return err
		}
	}
	// Read-only-participant accounting: each lock target the write set does
	// not cover costs this protocol a C.1 lock CAS and a C.6 unlock CAS on a
	// record the transaction merely read (C.2's validation READ is counted
	// at its own site).
	w.Stats.ROVerbs += 2 * uint64(len(locks)-tx.at.written)
	run := tx.lockRun()
	if err := tx.lockRemote(locks, run); err != nil {
		return err
	}

	// --- C.2: validate remote reads, take base seqs of remote writes (C.1 fetched them).
	tx.stage = StageValidate
	if err := tx.validate(validation{phase: PhaseValidate, lockedRS: true}, run); err != nil {
		tx.unlockTargets(PhaseUnlock, locks)
		return err
	}

	// --- C.3 + C.4: HTM region over local metadata.
	tx.stage = StageLocalHTM
	if err := tx.fenced(); err != nil {
		tx.unlockTargets(PhaseUnlock, locks)
		return err
	}
	if err := proto.localHTMCommit(tx); err != nil {
		if te, ok := asError(err); ok && te.Reason == AbortHTM {
			// Fallback handler (§6.1): locking protocol without HTM.
			// It owns the rest of the pipeline, including unlock.
			w.Stats.Fallbacks++
			tx.stage = StageFallback
			return proto.fallbackCommit(tx, locks)
		}
		tx.unlockTargets(PhaseUnlock, locks)
		return err
	}

	// The transaction is now locally committed: inserts/deletes, R.1, R.2,
	// C.5 and C.6 cannot abort it.
	tx.finish(tail{unlock: PhaseUnlock}, locks)
	return nil
}

// resolveWriteOffsets fills in offsets for remote blind writes and deletes
// that were never read, and answers a blind write to a missing record with
// ErrNotFound. A local one is only checked: C.4 and lockSet look it up again.
func (tx *Txn) resolveWriteOffsets() error {
	for i := range tx.ws {
		e := &tx.ws[i]
		if e.off != 0 || e.kind == wsInsert {
			continue
		}
		tbl := tx.w.E.M.Store.Table(e.table)
		var err error
		switch r := tx.findRS(e.table, e.key); {
		case e.local:
			if _, ok := tbl.Lookup(e.key); !ok {
				err = ErrNotFound
			}
		case r != nil:
			e.off = r.off
		default:
			loc, lerr := tx.w.remoteLookup(tx.w.QP(e.node), tbl, e.key)
			e.off, err = loc.Off, lerr
		}
		switch {
		case err == nil || e.kind == wsDelete && errors.Is(err, ErrNotFound):
			// deleting a missing record is a no-op
		case errors.Is(err, ErrNotFound):
			return tx.answer(err)
		default:
			if te, ok := asError(err); ok {
				te.Stage = tx.stage // commit-time lookup, not execution
			}
			return err
		}
	}
	return nil
}

// checkLocalWrites applies C.3's predicate, from memory at PerValidate each,
// to the local records the transaction read and also writes, so a commit C.3
// would reject aborts before C.1 rings a lock doorbell. A local read never
// records an odd seq under replication and seqs only grow: a record failing
// here fails C.3 too. Read-only local records are left to C.3, and lock
// words too (a remote reader's C.1 sets them). The abort is C.3's.
func (tx *Txn) checkLocalWrites() error {
	w := tx.w
	if w.E.Mut.SkipLocalValidate {
		return nil
	}
	start := w.Clk.Now()
	var stale *rsEntry
	var hdr [24]byte
	for i := range tx.rs {
		r := &tx.rs[i]
		if !r.local || tx.findWS(r.table, r.key) == nil {
			continue
		}
		h := w.E.M.Eng.ReadNonTx(r.off, 24, hdr[:])
		w.Clk.Advance(w.E.Costs.PerValidate)
		if tx.localReadStale(r, memstore.RecInc(h), memstore.RecSeq(h)) {
			stale = r
			break
		}
	}
	if w.Rec != nil && w.Clk.Now() > start {
		w.Rec.Record(obs.EvPhase, StageLocalHTM, 0, 0, tx.id, start, w.Clk.Now())
	}
	if stale == nil {
		return nil
	}
	tx.stage = StageLocalHTM
	return tx.abortOn(w.E.M.ID, stale.table, stale.key, AbortValidate, "local record changed before C.1")
}

// localReadStale is C.3's test of local read r against the record's current
// incarnation and seq, less what the mutations switch off.
func (tx *Txn) localReadStale(r *rsEntry, inc, cur uint64) bool {
	mut := &tx.w.E.Mut
	if mut.SkipLocalValidate {
		return false
	}
	return (inc != r.inc && !mut.SkipIncCheck) || !tx.seqValidates(r.seq, cur)
}

// localHTMCommit is C.3+C.4: one HTM region validating the local read set
// and applying the local (update) write set with seq+1. Bounded retries,
// by abort cause (htmRetryAfter); validation failures abort the
// transaction, and a capacity abort or repeated hardware aborts escalate to
// the fallback handler.
func (proto drtmrProto) localHTMCommit(tx *Txn) error {
	w := tx.w
	nLocal := 0
	for i := range tx.rs {
		if tx.rs[i].local {
			nLocal++
		}
	}
	for i := range tx.ws {
		if e := &tx.ws[i]; e.local && e.inPlace() {
			nLocal++
			if e.kind == wsDelta {
				// The fold inside the region fills a buffer carved here.
				tx.deltaBuf(e, w.E.M.Store.Table(e.table).Spec.ValueSize)
			}
		}
	}
	if nLocal == 0 {
		return nil
	}
	for attempt := 0; attempt < htmRetries; attempt++ {
		w.Clk.Advance(w.E.Costs.HTMRegion + time.Duration(nLocal)*w.E.Costs.PerValidate)
		tx.attempt().confSet = false
		err := proto.localHTMAttempt(tx)
		if err == nil {
			return nil
		}
		if ae, ok := err.(*htm.AbortError); ok && ae.Cause == htm.CauseExplicit {
			switch ae.Code {
			case abortCodeValidate:
				return tx.abortConflict(AbortValidate, "local validation failed")
			case abortCodeWSLocked:
				return tx.abortConflict(AbortLocked, "local ws record remotely locked")
			default: // abortCodeLocked is execution-phase only; retry the region
			}
		}
		switch htmRetryAfter(err) {
		case htmRetryNow:
		case htmRetryBackoff:
			w.Backoff(BackoffCommitRegion, attempt)
		case htmRetryNever:
			return tx.abort(AbortHTM, "commit HTM region over capacity")
		}
	}
	return tx.abort(AbortHTM, "commit HTM region exhausted retries")
}

// localHTMAttempt is one C.3+C.4 HTM region attempt, bracketed with
// htmBegin/htmEnd so the coroutine scheduler can assert that the region
// never spans a yield point.
func (proto drtmrProto) localHTMAttempt(tx *Txn) error {
	w := tx.w
	w.htmBegin()
	defer w.htmEnd()
	htx := w.E.M.Eng.Begin()
	defer htx.Release()
	if w.Rec != nil {
		htx.Trace(w.Rec, &w.Clk, tx.id)
	}
	if err := proto.localCommitBody(tx, htx); err != nil {
		return err
	}
	return htx.Commit()
}

// localCommitBody is the code inside the commit HTM region.
//
//drtmr:htmbody runs between localHTMAttempt's htmBegin/htmEnd bracket
func (proto drtmrProto) localCommitBody(tx *Txn, htx *htm.Txn) error {
	w := tx.w
	// C.3: validate local reads.
	for i := range tx.rs {
		r := &tx.rs[i]
		if !r.local {
			continue
		}
		inc, err := htx.Load64(r.off + memstore.IncOff)
		if err != nil {
			return err
		}
		cur, err := htx.Load64(r.off + memstore.SeqOff)
		if err != nil {
			return err
		}
		if tx.localReadStale(r, inc, cur) {
			tx.setConflict(r.table, r.key)
			return htx.Abort(abortCodeValidate)
		}
	}
	// C.4: apply local updates with seq+1 (odd under replication).
	for i := range tx.ws {
		e := &tx.ws[i]
		if !e.local || !e.inPlace() {
			continue
		}
		tbl := w.E.M.Store.Table(e.table)
		if e.off == 0 {
			off, ok := tbl.Lookup(e.key)
			if !ok {
				tx.setConflict(e.table, e.key)
				return htx.Abort(abortCodeValidate)
			}
			e.off = off
		}
		lockW, err := htx.Load64(e.off + memstore.LockOff)
		if err != nil {
			return err
		}
		if lockW != 0 {
			// A remote transaction locked this record before our
			// region began (§4.4's extra check).
			tx.setConflict(e.table, e.key)
			return htx.Abort(abortCodeWSLocked)
		}
		cur, err := htx.Load64(e.off + memstore.SeqOff)
		if err != nil {
			return err
		}
		if w.E.Replicated && !memstore.SeqIsCommittable(cur) {
			tx.setConflict(e.table, e.key)
			return htx.Abort(abortCodeValidate)
		}
		inc, err := htx.Load64(e.off + memstore.IncOff)
		if err != nil {
			return err
		}
		// The incarnation is remembered for the history record: local updates
		// never pass through C.2's header fetch.
		tx.setBase(e, cur, inc)
		newSeq := cur + 1
		if e.kind == wsDelta {
			// Fold the pending adds over the current value, read inside the
			// HTM region — strong atomicity makes this the moment the delta
			// stops commuting and becomes a plain image install.
			curImg, err := htx.Read(e.off, tbl.RecBytes, tx.scratch(tbl.RecBytes))
			if err != nil {
				return err
			}
			e.buf = memstore.GatherValueInto(e.buf, curImg, tbl.Spec.ValueSize)
			e.materialize()
		}
		img := memstore.BuildRecordImageInto(tx.scratch(tbl.RecBytes), tbl.Spec.ValueSize, e.buf, inc, newSeq)
		if err := htx.Write(e.off+8, img[8:]); err != nil {
			return err
		}
	}
	return nil
}

// finalSeq is the sequence number a record settles at once this update is
// fully committed.
func (tx *Txn) finalSeq(base uint64) uint64 {
	if tx.w.E.Replicated {
		return base + 2
	}
	return base + 1
}

// setBase records an in-place write's base: the sequence number it
// overwrites, the one it settles at, and the record's incarnation (which the
// install must preserve and the history record reports).
func (tx *Txn) setBase(e *wsEntry, cur, inc uint64) {
	e.baseSeq = cur
	e.finSeq = tx.finalSeq(cur)
	e.inc, e.haveInc = inc, true
}

// applyInsertsDeletes applies structural mutations after validation (§4.3):
// local ones in this machine's store, remote ones shipped with a SEND to the
// host machine, which applies them inside HTM there (oplog.Install's rule,
// which the local calls follow too). Replication of the mutation itself
// rides R.1's log entries, not the SEND. Fresh inserts start at initialSeq
// (finish chooses it); an insert whose key is present installs nothing and
// keeps off 0.
func (tx *Txn) applyInsertsDeletes(initialSeq uint64) {
	w := tx.w
	for i := range tx.ws {
		e := &tx.ws[i]
		if e.kind != wsInsert && e.kind != wsDelete {
			// Updates and materialized deltas are installed in place by
			// write-back (C.5), never here.
			continue
		}
		if !e.local {
			tx.countWakeup(e.node)
			r := oplog.Rec{Kind: oplog.KindDelete, Table: e.table, Shard: uint16(e.shard), Key: e.key}
			if e.kind == wsInsert {
				r.Kind, r.Seq, r.Value = oplog.KindInsert, initialSeq, e.buf
			}
			if off, err := w.E.M.Ship(w.QP(e.node), r); err == nil {
				e.off = off
			}
			continue
		}
		tbl := w.E.M.Store.Table(e.table)
		if e.kind == wsDelete {
			_ = tbl.Delete(e.key)
		} else if off, err := tbl.InsertWithSeq(e.key, e.buf, initialSeq); err == nil {
			e.off = off
		}
	}
}

// ringToken pairs a log append with its target for post-commit truncation.
type ringToken struct {
	node rdma.NodeID
	tok  oplog.Token
}

// replicate is R.1: write one log entry carrying the FULL write set to every
// replica ring — all backups of every written shard, plus the primaries of
// remote written shards (so a coordinator death after publish can always be
// redone; see the oplog package comment). Every ring's payload and header
// ride one doorbell; the entry is encoded into the attempt's scratch, which
// keeps it until the attempt ends and the batch's WRITEs that carry it are
// reset. The rings whose entry landed are returned, in the same scratch.
func (tx *Txn) replicate() []ringToken {
	w := tx.w
	a := tx.attempt()
	a.recs = tx.logRecords(a.recs[:0])
	if len(a.recs) == 0 {
		return nil
	}
	a.entry = oplog.AppendEncode(a.entry[:0], tx.id, a.recs)
	entry := a.entry

	// Target set from the FRESH configuration: if a backup died, its
	// replacement placement is what matters now.
	cfg := w.E.M.Config()
	targets := a.nodes[:0]
	for i := range tx.ws {
		e := &tx.ws[i]
		if int(e.shard) >= cfg.NumShards() {
			continue
		}
		// Primaries of remote shards get the entry too (crash redo);
		// the local primary copy was already updated in C.4. Backups
		// always get it — including THIS machine when it happens to
		// back up a remote shard (loop-back ring).
		if p := cfg.PrimaryOf(e.shard); p != w.E.M.ID {
			targets = append(targets, p)
		}
		targets = append(targets, cfg.BackupsOf(e.shard)...)
	}
	// Node order, each target once: the post order below decides per-NIC
	// queueing, so it must not depend on map iteration.
	slices.Sort(targets)
	targets = slices.Compact(targets)
	a.nodes = targets
	// One doorbell for the whole fan-out (one base write latency): each
	// ring's header rides its payload's queue pair, behind it, so a header
	// lands only with its payload. An empty batch — every target dead or
	// skipped — charges nothing.
	b := tx.batch()
	toks := a.toks[:0]
	for _, node := range targets {
		tx.countWakeup(node)
		tk, err := w.E.M.LogWriter(node).Post(w.QP(node), b, entry)
		if err != nil {
			continue // dead target: its replacement is covered post-reconfig
		}
		toks = append(toks, ringToken{node: node, tok: tk})
	}
	a.toks = toks
	_ = w.ExecBatch(PhaseLog, tx.id, b)
	// A ring whose verbs failed (its machine died) holds no entry.
	return slices.DeleteFunc(toks, func(rt ringToken) bool { return !rt.tok.Landed() })
}

// logRecords appends the full-write-set log payload, with final sequence
// numbers (Table 4: backups install SN_new+2 directly), to recs.
func (tx *Txn) logRecords(recs []oplog.Rec) []oplog.Rec {
	for i := range tx.ws {
		e := &tx.ws[i]
		var kind uint8
		switch e.kind {
		case wsUpdate, wsDelta:
			// Deltas replicate as plain updates: buf was materialized under
			// the commit critical section before R.1 runs.
			kind = oplog.KindUpdate
		case wsInsert:
			kind = oplog.KindInsert
		case wsDelete:
			kind = oplog.KindDelete
		}
		recs = append(recs, oplog.Rec{
			Kind:  kind,
			Table: e.table,
			Shard: uint16(e.shard),
			Key:   e.key,
			Seq:   e.finSeq,
			Value: e.buf,
		})
	}
	return recs
}

// makeupLocal is R.2: flip local updates (and fresh local inserts) from odd
// to even — committable — re-stamping the per-line versions. Each record is
// flipped in its own small HTM region for atomicity against local readers.
func (tx *Txn) makeupLocal() {
	w := tx.w
	for i := range tx.ws {
		e := &tx.ws[i]
		if !e.local || e.kind == wsDelete || e.off == 0 {
			continue
		}
		// A flip cannot give up: the transaction has committed. A capacity
		// abort backs off like a conflict.
		for attempt := 1; ; attempt++ {
			err := tx.makeupAttempt(e)
			if err == nil {
				break
			}
			if htmRetryAfter(err) != htmRetryNow {
				w.Backoff(BackoffMakeup, attempt)
			}
		}
	}
}

// makeupAttempt is one R.2 seq-flip inside its own HTM region, bracketed
// with htmBegin/htmEnd for the scheduler's no-yield-in-region assertion.
// It returns nil once the record has settled at its final sequence number.
func (tx *Txn) makeupAttempt(e *wsEntry) error {
	w := tx.w
	w.htmBegin()
	defer w.htmEnd()
	htx := w.E.M.Eng.Begin()
	defer htx.Release()
	if w.Rec != nil {
		htx.Trace(w.Rec, &w.Clk, tx.id)
	}
	cur, err := htx.Load64(e.off + memstore.SeqOff)
	if err != nil {
		return err
	}
	if cur >= e.finSeq {
		htx.Commit() // already advanced (log applier raced us)
		return nil
	}
	if err := htx.Store64(e.off+memstore.SeqOff, e.finSeq); err != nil {
		return err
	}
	if err := tx.stampVersions(htx, e.off, e.table, e.finSeq); err != nil {
		return err
	}
	return htx.Commit()
}

// stampVersions writes low16(seq) into each per-line version slot of the
// record at off, inside the given HTM transaction.
//
//drtmr:htmbody runs inside the makeup/commit HTM regions
func (tx *Txn) stampVersions(htx *htm.Txn, off uint64, table memstore.TableID, seq uint64) error {
	tbl := tx.w.E.M.Store.Table(table)
	v := uint16(seq & 0xFFFF)
	var b [2]byte
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	for line := 1; line < tbl.RecLines; line++ {
		if err := htx.Write(off+uint64(line*64), b[:]); err != nil {
			return err
		}
	}
	return nil
}

// postWriteBack is C.5: it posts the RDMA WRITEs installing each remote
// update's new image (final committable seq, versions stamped), skipping the
// lock word, plus the seq-flip of remote inserts. finish rings the doorbell.
func (tx *Txn) postWriteBack(b *rdma.Batch) {
	w := tx.w
	for i := range tx.ws {
		e := &tx.ws[i]
		if e.local || e.off == 0 {
			continue
		}
		switch e.kind {
		case wsUpdate, wsDelta:
			// The validate stage ran setBase on every resolved remote
			// in-place write: the final seq and the incarnation to preserve
			// are on the entry (no extra header READ here), and a delta's
			// buf was materialized under the lock, so the install is a
			// plain image.
			tbl := w.E.M.Store.Table(e.table)
			img := memstore.BuildRecordImageInto(tx.carve(tbl.RecBytes), tbl.Spec.ValueSize, e.buf, e.inc, e.finSeq)
			b.PostWrite(w.QP(e.node), e.off+8, img[8:])
		case wsInsert:
			if !w.E.Replicated {
				continue
			}
			tbl := w.E.M.Store.Table(e.table)
			img := memstore.BuildRecordImageInto(tx.carve(tbl.RecBytes), tbl.Spec.ValueSize, e.buf, 0, e.finSeq)
			// Write seq + data + versions; inc is unknown here (the
			// host assigned it), so skip the first 24 header bytes and
			// write the seq word separately.
			b.PostWrite64(w.QP(e.node), e.off+memstore.SeqOff, e.finSeq)
			b.PostWrite(w.QP(e.node), e.off+24, img[24:])
		case wsDelete:
			// Deletes were applied structurally by applyInsertsDeletes;
			// there is no image to install.
		}
	}
}

// commitReadOnly is §4.5's commit: no HTM, no locks. The transaction is
// consistent as of its last read if every other record is unchanged and
// unlocked at some instant at or after it, so the last read-set entry is not
// checked where its read checked the lock (every read of a read-only
// transaction, a local read of any), and remote entries that rode behind it
// (carried) were confirmed then. The rest are checked here: local ones from
// memory, remote ones through one doorbell of header READs.
func (tx *Txn) commitReadOnly() error {
	w := tx.w
	rs := tx.rs
	if n := len(rs); n > 0 && (tx.readOnly || rs[n-1].local) {
		rs = rs[:n-1]
	}
	// The remote entries' READs, in read-set order, in the attempt's scratch:
	// the doorbell below yields, and a sibling transaction's commit may run
	// meanwhile with scratch of its own.
	var pend []*rdma.Pending
	if !tx.carried {
		a, b := tx.attempt(), tx.batch()
		pend = a.slots[:0]
		for i := range rs {
			if !rs[i].local {
				pend = append(pend, b.PostRead(w.QP(rs[i].node), rs[i].off, 24))
				w.Stats.ROVerbs++ // every read-only validation READ hits a pure read participant
			}
		}
		a.slots = pend
		_ = w.ExecBatch(PhaseROValidate, tx.id, b)
	}

	var hdr [24]byte
	for i := range rs {
		r := &rs[i]
		var h []byte
		switch {
		case r.local:
			h = w.E.M.Eng.ReadNonTx(r.off, 24, hdr[:])
			w.Clk.Advance(w.E.Costs.PerValidate)
		case tx.carried:
			continue
		default:
			p := pend[0]
			pend = pend[1:]
			if p.Err != nil {
				return tx.abortAt(r.node, AbortNodeDead, "ro validate verb")
			}
			h = p.Data
		}
		if err := tx.roConfirm(r, h); err != nil {
			return err
		}
	}
	return nil
}

// roConfirm is the read-only protocol's test of read r against its header h,
// read at or after the transaction's last read: the same incarnation, a
// sequence number that validates, and no lock. A set lock fails it like a
// changed version (FaRM's validation does the same): a writer that locked r
// at C.1 may already have installed its local records at C.4 while r still
// shows the old version until C.5, so a reader that saw r before C.1 and
// another of the writer's records after C.4 would commit half of it.
func (tx *Txn) roConfirm(r *rsEntry, h []byte) error {
	if tx.w.E.Mut.SkipROValidate {
		return nil
	}
	if lockW := memstore.RecLock(h); lockW != 0 {
		tx.w.maybeReleaseDangling(tx.cfg, r.node, r.off, lockW)
		return tx.abortOn(r.node, r.table, r.key, AbortLocked, "ro: record locked").saw(lockW)
	}
	if memstore.RecInc(h) != r.inc || !tx.seqValidates(r.seq, memstore.RecSeq(h)) {
		return tx.abortOn(r.node, r.table, r.key, AbortValidate, "ro: record changed").saw(memstore.RecSeq(h))
	}
	return nil
}
