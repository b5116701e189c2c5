package txn

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
)

// XABORT codes used by the protocol.
const (
	// abortCodeLocked: execution-phase local read found the record locked
	// by a (remote) transaction — retry after backoff (§4.3).
	abortCodeLocked = 0x11
	// abortCodeWSLocked: commit-phase HTM region found a local write-set
	// record locked by a remote transaction (§4.4 C.4's extra check).
	abortCodeWSLocked = 0x12
	// abortCodeValidate: commit-phase validation failed inside HTM.
	abortCodeValidate = 0x13
)

// wsKind distinguishes write-set entries.
type wsKind uint8

const (
	wsUpdate wsKind = iota
	wsInsert
	wsDelete
	// wsDelta is a commutative update (Txn.Add): the entry carries add
	// operations instead of a value; buf is materialized from the record's
	// current value inside the commit critical section (C.2/C.4/fallback,
	// with the record locked or HTM-protected), so concurrent deltas
	// commute instead of conflicting.
	wsDelta
)

// fieldDelta is one commutative wrapping add against a little-endian u64
// field of the value (two's complement makes subtraction an add).
type fieldDelta struct {
	off uint32
	add uint64
}

// applyDeltaTo folds one delta into a value buffer in place.
func applyDeltaTo(b []byte, off uint32, add uint64) {
	if int(off)+8 > len(b) {
		return
	}
	binary.LittleEndian.PutUint64(b[off:], binary.LittleEndian.Uint64(b[off:])+add)
}

// rsEntry is one read-set record: where it was, and the version observed.
type rsEntry struct {
	table memstore.TableID
	key   uint64
	shard cluster.ShardID
	node  rdma.NodeID
	off   uint64
	seq   uint64
	inc   uint64
	local bool
	// val is the value read, cached for repeated reads. Once the record has
	// a buffered update, Read answers from the write set instead, so Write
	// takes val's storage for the new value and leaves val nil.
	val []byte
}

// wsEntry is one write-set record with its buffered new value (§4.3: all
// writes go to a local private buffer during execution).
type wsEntry struct {
	kind  wsKind
	table memstore.TableID
	key   uint64
	shard cluster.ShardID
	node  rdma.NodeID
	off   uint64 // 0 until resolved (inserts: after RPC/apply)
	local bool
	// read says the read set holds the record too: its header, not a base
	// of the write's own, is what the validate stage fetches.
	read bool
	buf  []byte
	// baseSeq is the record's sequence number observed when locking /
	// inside the commit HTM region; newSeq = baseSeq + 1 (+1 again after
	// replication).
	baseSeq uint64
	finSeq  uint64
	// inc caches the record's incarnation, captured by the validate stage's
	// header fetch or inside the C.4 HTM region (valid when haveInc): the
	// install rebuilds the image from it instead of reading the header again.
	inc     uint64
	haveInc bool
	// deltas holds a wsDelta entry's pending commutative adds.
	deltas []fieldDelta
}

// inPlace reports whether the entry installs a new image over an existing
// record — an update, or a delta once materialized — rather than changing the
// table's structure (insert, delete).
func (e *wsEntry) inPlace() bool { return e.kind == wsUpdate || e.kind == wsDelta }

// materialize makes a wsDelta entry's buf, which the caller has just filled
// with the record's current value, its final image by folding the pending
// deltas over it. Callers must hold the commit critical section for the
// record (C.1 lock, C.4 HTM region, or the fallback's sorted locks) so the
// value cannot move before install.
func (e *wsEntry) materialize() {
	for _, d := range e.deltas {
		applyDeltaTo(e.buf, d.off, d.add)
	}
}

// Txn is one user transaction. It is created by Worker.Begin /
// BeginReadOnly and driven by user code during the execution phase; Commit
// runs the hybrid commit protocol.
//
// A Txn is bookkeeping, recycled: Begin takes one its worker's runLoop gave
// back (recycle), with the capacity of its sets and their indexes and its
// attempt scratch, or allocates one. The fields are ordered so that the
// struct packs into 208 bytes, one allocation size class.
type Txn struct {
	w   *Worker
	id  uint64
	cfg *cluster.Config

	rs []rsEntry
	ws []wsEntry
	// rsIdx and wsIdx find entries of rs and ws by record once the set
	// outgrows footScan entries; both sets are append-only.
	rsIdx, wsIdx footIndex

	// slab is the chunk carve cuts values from.
	slab []byte

	// at is the doorbell and commit scratch of the transaction's attempts
	// (nil until a stage first needs it), emptied when an attempt ends and
	// kept by recycle.
	at *attempt

	readOnly bool
	// stage is the lifecycle position (StageExec .. StageFallback) used to
	// attribute aborts; the commit pipeline updates it as it advances.
	stage uint8

	// A read-only transaction is consistent as of its last read (carryTo):
	// carry[:carryN] are the read-set positions of its remote entries while
	// they all live on one node and number at most maxCarry (carryN < 0 once
	// they do not), and carried says the remote entries before the last one
	// read were confirmed behind that read's READ.
	carryN  int8
	carried bool
	carry   [maxCarry]int32

	// carved counts the bytes carve has handed out, which sizes the next
	// chunk of the slab.
	carved int32
}

// carve returns n bytes cut from the transaction's value slab: every value
// the transaction keeps or returns — read-set snapshots, the copies Read
// returns, buffered writes and inserts, materialized deltas, write-back
// images — lives there. Each carve is capped, so a holder's append
// reallocates instead of running into the next value. The slab grows
// geometrically from its first request: a request the current chunk has no
// room for starts a chunk as large as everything carved before it, so a
// transaction pays one allocation per doubling instead of one per value, and
// one of a few small values allocates about the bytes a copy per value
// would. A slab is never reused, by a pool or by the worker's next
// transaction: a value stays valid for as long as anyone holds it, after
// Commit and after the transaction's own retry, and sibling coroutines never
// share one, because each transaction has its own.
func (tx *Txn) carve(n int) []byte {
	used := len(tx.slab)
	if cap(tx.slab)-used < n {
		tx.slab = make([]byte, 0, max(n, int(tx.carved)))
		used = 0
	}
	tx.slab = tx.slab[:used+n]
	tx.carved += int32(n)
	return tx.slab[used : used+n : used+n]
}

// shrink gives the slab back all of b, the latest carve, past its first n
// bytes.
func (tx *Txn) shrink(b []byte, n int) []byte {
	tx.slab = tx.slab[:len(tx.slab)-len(b)+n]
	tx.carved -= int32(len(b) - n)
	return b[:n:n]
}

// fill copies v into dst when dst has room for it, else into a fresh carve.
func (tx *Txn) fill(dst, v []byte) []byte {
	if cap(dst) < len(v) {
		dst = tx.carve(len(v))
	}
	dst = dst[:len(v)]
	copy(dst, v)
	return dst
}

// deltaBuf gives a wsDelta entry a buf that can take the record's value of n
// bytes without an allocation of its own.
func (tx *Txn) deltaBuf(e *wsEntry, n int) {
	if cap(e.buf) < n {
		e.buf = tx.carve(n)
	}
}

// setConflict records the conflicting record for post-HTM abort attribution.
func (tx *Txn) setConflict(table memstore.TableID, key uint64) {
	a := tx.attempt()
	a.confTable, a.confKey, a.confSet = table, key, true
}

// Begin starts a read-write transaction. The configuration is snapshotted
// so that every locality decision inside the transaction is consistent; an
// epoch change surfaces as dead-node aborts and a retry picks up the new
// configuration.
func (w *Worker) Begin() *Txn {
	w.nextTxn++
	w.Clk.Advance(w.E.Costs.TxnOverhead)
	w.E.M.Cluster().Report(w.Clk.Now())
	var tx *Txn
	if n := len(w.txns); n > 0 {
		tx, w.txns = w.txns[n-1], w.txns[:n-1]
	} else {
		tx = new(Txn)
	}
	tx.w, tx.id, tx.cfg = w, uint64(w.E.M.ID)<<56|uint64(w.ID)<<40|w.nextTxn, w.E.M.Config()
	return tx
}

// recycle gives tx back to its worker for a later Begin, once nothing reads
// it any more. It keeps the capacity of the sets, of their indexes and of
// each write-set slot's deltas, and the attempt scratch the last attempt
// emptied, and drops every value reference: values live
// in the slab they were carved from, and the next transaction on tx starts a
// slab of its own, so a value outlives the Txn it came from.
func (w *Worker) recycle(tx *Txn) {
	clear(tx.rs)
	for i := range tx.ws {
		tx.ws[i] = wsEntry{deltas: tx.ws[i].deltas[:0]}
	}
	*tx = Txn{
		rs: tx.rs[:0], ws: tx.ws[:0],
		rsIdx: footIndex{slot: tx.rsIdx.slot[:0]}, wsIdx: footIndex{slot: tx.wsIdx.slot[:0]},
		at: tx.at,
	}
	w.txns = append(w.txns, tx)
}

// appendWS appends e to the write set and returns it. The slot it takes keeps
// the deltas capacity an earlier transaction's entry left there, so Add
// allocates no deltas once the worker is warm.
func (tx *Txn) appendWS(e wsEntry) *wsEntry {
	n := len(tx.ws)
	if n < cap(tx.ws) {
		e.deltas = tx.ws[:n+1][n].deltas[:0]
	}
	tx.ws = append(tx.ws, e)
	return &tx.ws[n]
}

// BeginReadOnly starts a read-only transaction (§4.5's protocol: no HTM and
// no locking in the commit phase, but remote reads check the lock).
func (w *Worker) BeginReadOnly() *Txn {
	tx := w.Begin()
	tx.readOnly = true
	return tx
}

// keyAt is the (table, key) of the record at (node, off), read set first, to
// key aborts raised by offset-level operations (C.1 lock CASes). Unresolved
// entries (off 0) never match.
func (tx *Txn) keyAt(node rdma.NodeID, off uint64) (memstore.TableID, uint64, bool) {
	for i := range tx.rs {
		if r := &tx.rs[i]; r.node == node && r.off == off && off != 0 {
			return r.table, r.key, true
		}
	}
	for i := range tx.ws {
		if e := &tx.ws[i]; e.node == node && e.off == off && off != 0 {
			return e.table, e.key, true
		}
	}
	return 0, 0, false
}

// homeOf resolves a record's placement under this transaction's
// configuration snapshot.
func (tx *Txn) homeOf(table memstore.TableID, key uint64) (cluster.ShardID, rdma.NodeID, bool) {
	shard := tx.w.E.Part(table, key)
	node := tx.cfg.PrimaryOf(shard)
	return shard, node, node == tx.w.E.M.ID
}

// footScan is the set size up to which findRS and findWS scan: a
// StockLevel's few hundred reads would make scanning quadratic, while an
// index costs an allocation and a table insert per entry, which NewOrder's
// 20–40-entry sets and SmallBank's handful of records pay more for than
// they save (a TPC-C profile read findRS + findWS at 0.37 s with 64 against
// 0.60 s with 16 or 32).
const footScan = 64

type recKey struct {
	table memstore.TableID
	key   uint64
}

func (e *rsEntry) rec() recKey { return recKey{e.table, e.key} }
func (e *wsEntry) rec() recKey { return recKey{e.table, e.key} }

// footIndex finds the first entry naming a record in an append-only set,
// which is what a scan finds (a Delete then an Insert of one key leaves two
// ws entries): open addressing over slots holding an entry's position plus
// one (0: empty), hashed on (table, key). It covers set[:n] and catches up on
// lookup. An empty slot table (a recycled Txn keeps its capacity) means the
// set is still scanned.
type footIndex struct {
	slot  []int32
	shift uint8
	n     int32
}

func (k recKey) hash(shift uint8) int {
	return int((k.key ^ uint64(k.table)<<56) * 0x9E3779B97F4A7C15 >> shift)
}

// find returns the first entry of set naming k, scanning while the set is
// short and answering from x past that.
func find[E any, P interface {
	*E
	rec() recKey
}](x *footIndex, set []E, k recKey) *E {
	if len(x.slot) == 0 && len(set) <= footScan {
		for i := range set {
			if P(&set[i]).rec() == k {
				return &set[i]
			}
		}
		return nil
	}
	if 2*len(set) > len(x.slot) {
		b := bits.Len(uint(4*len(set) - 1))
		x.slot = slices.Grow(x.slot[:0], 1<<b)[:1<<b]
		clear(x.slot)
		x.shift, x.n = uint8(64-b), 0
	}
	mask := len(x.slot) - 1
	for ; int(x.n) < len(set); x.n++ {
		r := P(&set[x.n]).rec()
		h := r.hash(x.shift)
		for x.slot[h] != 0 && P(&set[x.slot[h]-1]).rec() != r {
			h = (h + 1) & mask
		}
		if x.slot[h] == 0 {
			x.slot[h] = x.n + 1
		}
	}
	for h := k.hash(x.shift); x.slot[h] != 0; h = (h + 1) & mask {
		if e := &set[x.slot[h]-1]; P(e).rec() == k {
			return e
		}
	}
	return nil
}

func (tx *Txn) findWS(table memstore.TableID, key uint64) *wsEntry {
	return find(&tx.wsIdx, tx.ws, recKey{table, key})
}

func (tx *Txn) findRS(table memstore.TableID, key uint64) *rsEntry {
	return find(&tx.rsIdx, tx.rs, recKey{table, key})
}

// Read returns the record's value, tracking it in the read set. Missing
// keys return ErrNotFound. Reads see the transaction's own buffered writes.
// The returned slice belongs to the caller: it is a fresh copy that may be
// modified and passed to Write, that no later Read of the transaction
// observes, and that stays valid after the transaction ends.
func (tx *Txn) Read(table memstore.TableID, key uint64) ([]byte, error) {
	// A pending wsDelta has no value of its own: fall through to a protocol
	// read (which tracks the record in the read set, giving up the delta's
	// validation immunity for this record — reading it reintroduces an
	// ordering dependency) and overlay the pending adds on the result.
	var dw *wsEntry
	if w := tx.findWS(table, key); w != nil {
		switch w.kind {
		case wsDelete:
			return nil, ErrNotFound
		case wsDelta:
			dw = w
		default:
			return tx.fill(nil, w.buf), nil
		}
	}
	overlay := func(val []byte) []byte {
		out := tx.fill(nil, val)
		if dw != nil {
			for _, d := range dw.deltas {
				applyDeltaTo(out, d.off, d.add)
			}
		}
		return out
	}
	if r := tx.findRS(table, key); r != nil {
		return overlay(r.val), nil
	}
	shard, node, local := tx.homeOf(table, key)
	carry, all := tx.carryTo(node)
	var (
		e   rsEntry
		err error
	)
	if local {
		e, err = tx.localRead(table, key)
	} else {
		e, err = tx.remoteRead(node, table, key, tx.readOnly, carry)
	}
	if err != nil {
		return nil, err
	}
	e.shard, e.node = shard, node
	tx.rs = append(tx.rs, e)
	if dw != nil {
		dw.read = true
	}
	tx.carried = all
	if !local && tx.carryN >= 0 {
		if all && tx.carryN < maxCarry {
			tx.carry[tx.carryN] = int32(len(tx.rs) - 1)
			tx.carryN++
		} else {
			tx.carryN = -1
		}
	}
	return overlay(e.val), nil
}

// maxCarry is how many earlier headers a read-only READ carries: with the
// READ itself they fill commitReadOnly's eight slots, and a long read set
// never posts a quadratic number of headers.
const maxCarry = 7

// carryTo says what a read-only transaction's next read, of a record on
// node, confirms of its read set (§4.5 with the last read as the snapshot):
// if every earlier remote entry lives on node and there are at most
// maxCarry, their header READs ride behind the record READ on the same queue
// pair and see each record at or after that read, which makes it the
// instant all the values coexisted; all reports that and carry lists them.
// A local read posts no READ, so all holds for it only when there is no
// earlier remote entry. A read-write transaction carries nothing: its remote
// reads do not check the lock.
func (tx *Txn) carryTo(node rdma.NodeID) (carry []int32, all bool) {
	switch {
	case !tx.readOnly || tx.carryN < 0:
		return nil, false
	case tx.carryN == 0:
		return nil, true
	case tx.rs[tx.carry[0]].node == node:
		return tx.carry[:tx.carryN], true
	}
	return nil, false
}

// ReadStable is a version-consistent read that does NOT enroll the record
// in the read set: the returned value is a committed snapshot, but commit
// never re-validates it, so later writes to the record cannot abort this
// transaction. It exists for fields that are immutable after load (TPC-C
// w_tax, a customer's discount): record-granular validation otherwise
// false-shares such rows with writers of unrelated fields — a Payment YTD
// delta on the warehouse row kills every concurrent NewOrder that glanced
// at the tax — which is pure tail with no serializability payoff. The
// caller asserts the fields it uses are immutable; a mutable field read
// through ReadStable can legitimately be stale by commit time. With
// ContentionOff it degrades to a plain tracked Read, so the ablation
// measures exactly this false sharing. The returned slice belongs to the
// caller, as Read's does.
func (tx *Txn) ReadStable(table memstore.TableID, key uint64) ([]byte, error) {
	if !tx.w.E.contentionOn() {
		return tx.Read(table, key)
	}
	// A pending own write or an already-tracked read supplies the value the
	// transaction would observe anyway: delegate rather than re-fetch.
	if tx.findWS(table, key) != nil || tx.findRS(table, key) != nil {
		return tx.Read(table, key)
	}
	_, node, local := tx.homeOf(table, key)
	var (
		e   rsEntry
		err error
	)
	if local {
		e, err = tx.localRead(table, key)
	} else {
		e, err = tx.remoteRead(node, table, key, tx.readOnly, nil)
	}
	if err != nil {
		return nil, err
	}
	return e.val, nil
}

// Write buffers a new value for the record (update). The record need not
// have been read first (blind writes are allowed; the commit phase fetches
// the base sequence number itself).
func (tx *Txn) Write(table memstore.TableID, key uint64, value []byte) error {
	if tx.readOnly {
		return fmt.Errorf("txn: write in read-only transaction")
	}
	if w := tx.findWS(table, key); w != nil {
		if w.kind == wsDelete {
			return fmt.Errorf("txn: write after delete of key %d", key)
		}
		w.buf = tx.fill(w.buf, value)
		if w.kind == wsDelta {
			// An absolute write supersedes the pending deltas: the entry
			// becomes a plain (blind) update carrying this value.
			w.kind = wsUpdate
			w.deltas = w.deltas[:0]
		}
		return nil
	}
	shard, node, local := tx.homeOf(table, key)
	e := wsEntry{
		kind: wsUpdate, table: table, key: key,
		shard: shard, node: node, local: local,
	}
	var reuse []byte
	if r := tx.findRS(table, key); r != nil {
		e.off, e.read = r.off, true
		reuse, r.val = r.val, nil
	}
	e.buf = tx.fill(reuse, value)
	tx.appendWS(e)
	return nil
}

// Add buffers a commutative delta: at commit, the little-endian u64 field at
// fieldOff has delta added to it (wrapping; pass the two's complement of a
// positive amount to subtract). Unlike Read+Write, Add tracks nothing in the
// read set and carries no base value, so two transactions adding to the same
// record commute — neither can validate-abort the other. The fold happens
// inside the commit critical section (C.2 under the C.1 lock, C.4 inside the
// HTM region, or the fallback under its sorted locks), where the current
// value cannot move before the install. The record must exist (a missing key
// surfaces as an abort/ErrNotFound at commit, like other blind writes). With
// ContentionOff the call degrades to the read-modify-write it replaced, so
// the ablation reproduces pure-OCC behaviour exactly.
func (tx *Txn) Add(table memstore.TableID, key uint64, fieldOff int, delta uint64) error {
	if tx.readOnly {
		return fmt.Errorf("txn: add in read-only transaction")
	}
	tbl := tx.w.E.M.Store.Table(table)
	if tbl == nil {
		return fmt.Errorf("txn: unknown table %d", table)
	}
	if fieldOff < 0 || fieldOff+8 > tbl.Spec.ValueSize {
		return fmt.Errorf("txn: add offset %d out of range for table %d", fieldOff, table)
	}
	if w := tx.findWS(table, key); w != nil {
		switch w.kind {
		case wsDelete:
			return fmt.Errorf("txn: add after delete of key %d", key)
		case wsDelta:
			w.deltas = append(w.deltas, fieldDelta{off: uint32(fieldOff), add: delta})
			return nil
		default:
			// The entry already carries a full value: fold the delta into it.
			applyDeltaTo(w.buf, uint32(fieldOff), delta)
			return nil
		}
	}
	if !tx.w.E.contentionOn() {
		v, err := tx.Read(table, key)
		if err != nil {
			return err
		}
		applyDeltaTo(v, uint32(fieldOff), delta)
		return tx.Write(table, key, v)
	}
	shard, node, local := tx.homeOf(table, key)
	e := wsEntry{
		kind: wsDelta, table: table, key: key,
		shard: shard, node: node, local: local,
	}
	if r := tx.findRS(table, key); r != nil {
		e.off, e.read = r.off, true
	}
	w := tx.appendWS(e)
	w.deltas = append(w.deltas, fieldDelta{off: uint32(fieldOff), add: delta})
	return nil
}

// Insert creates a new record. Local inserts apply at commit inside the
// host; remote inserts ship to the host machine over SEND/RECV (§4.3).
func (tx *Txn) Insert(table memstore.TableID, key uint64, value []byte) error {
	if tx.readOnly {
		return fmt.Errorf("txn: insert in read-only transaction")
	}
	if w := tx.findWS(table, key); w != nil && w.kind != wsDelete {
		return fmt.Errorf("txn: duplicate insert of key %d", key)
	}
	shard, node, local := tx.homeOf(table, key)
	tx.appendWS(wsEntry{
		kind: wsInsert, table: table, key: key,
		shard: shard, node: node, local: local,
		buf: tx.fill(nil, value),
	})
	return nil
}

// Delete removes a record at commit. It supersedes whatever the transaction
// buffered for the key before: the entry becomes the delete, so a later Read
// finds nothing.
func (tx *Txn) Delete(table memstore.TableID, key uint64) error {
	if tx.readOnly {
		return fmt.Errorf("txn: delete in read-only transaction")
	}
	if w := tx.findWS(table, key); w != nil {
		w.kind, w.buf, w.deltas = wsDelete, nil, w.deltas[:0]
		return nil
	}
	shard, node, local := tx.homeOf(table, key)
	tx.appendWS(wsEntry{
		kind: wsDelete, table: table, key: key,
		shard: shard, node: node, local: local,
		read: tx.findRS(table, key) != nil,
	})
	return nil
}

// ReadForUpdate is Read that also marks the record for update with the same
// value (callers overwrite via Write); it simply combines the two common
// calls. The returned slice belongs to the caller, as Read's does: the write
// buffered here is a copy of it.
func (tx *Txn) ReadForUpdate(table memstore.TableID, key uint64) ([]byte, error) {
	v, err := tx.Read(table, key)
	if err != nil {
		return nil, err
	}
	return v, tx.Write(table, key, v)
}

// localRead performs a consistent read of a local record inside a small HTM
// region (Fig 5): check the lock word first — a locked record means a
// remote transaction is about to update it, so manually abort and retry
// with randomized backoff (§4.3) — then snapshot the record. A spurious
// abort retries at once (htmRetryAfter); a capacity abort, which a read has
// no fallback for, backs off like a conflict.
func (tx *Txn) localRead(table memstore.TableID, key uint64) (rsEntry, error) {
	tbl := tx.w.E.M.Store.Table(table)
	if tbl == nil {
		return rsEntry{}, fmt.Errorf("txn: unknown table %d", table)
	}
	off, ok := tbl.Lookup(key)
	if !ok {
		return rsEntry{}, ErrNotFound
	}
	for attempt := 0; attempt < 256; attempt++ {
		tx.w.Clk.Advance(tx.w.E.Costs.LocalAccess)
		// The snapshot lands in the attempt's scratch: its value is copied
		// out, so the next try may overwrite it.
		img, lockW, err := tx.localReadAttempt(off, tbl, tx.scratch(tbl.RecBytes))
		if err == nil {
			seq := memstore.RecSeq(img)
			if tx.w.E.Replicated && !memstore.SeqIsCommittable(seq) {
				// Uncommittable (Table 4): a local committer is between its
				// HTM region and replication makeup. Its value exists here
				// but its remote writes may not have landed — serializing on
				// it would observe half a transaction. Wait for the flip.
				tx.w.Backoff(BackoffLocalRead, attempt)
				continue
			}
			return rsEntry{
				table: table, key: key, off: off, local: true,
				seq: seq, inc: memstore.RecInc(img),
				val: memstore.GatherValueInto(tx.carve(tbl.Spec.ValueSize), img, tbl.Spec.ValueSize),
			}, nil
		}
		if lockW != 0 {
			tx.w.maybeReleaseDangling(tx.cfg, tx.w.E.M.ID, off, lockW)
		}
		if htmRetryAfter(err) != htmRetryNow {
			tx.w.Backoff(BackoffLocalRead, attempt)
		}
	}
	return rsEntry{}, tx.abortOn(tx.w.E.M.ID, table, key, AbortLocked, "local record stayed locked")
}

// localReadAttempt is one HTM-protected snapshot attempt (Fig 5). The whole
// region is bracketed with htmBegin/htmEnd so the coroutine scheduler can
// assert that no yield point is ever reached while the region is open.
// err is the region's abort; lockW is non-zero when the attempt manually
// aborted on a locked record.
func (tx *Txn) localReadAttempt(off uint64, tbl *memstore.Table, buf []byte) (img []byte, lockW uint64, err error) {
	w := tx.w
	w.htmBegin()
	defer w.htmEnd()
	htx := w.E.M.Eng.Begin()
	defer htx.Release()
	if w.Rec != nil {
		htx.Trace(w.Rec, &w.Clk, tx.id)
	}
	lockW, err = htx.Load64(off + memstore.LockOff)
	if err != nil {
		return buf, 0, err
	}
	if lockW != 0 {
		return buf, lockW, htx.Abort(abortCodeLocked)
	}
	img, err = htx.Read(off, tbl.RecBytes, buf)
	if err != nil {
		return img, 0, err
	}
	return img, 0, htx.Commit()
}

// remoteRead performs a lock-free consistent read of a remote record with
// one-sided RDMA: fetch the whole record, then check that every cacheline's
// version matches the sequence number (Fig 6). checkLock additionally
// rejects locked records — required only by the read-only protocol (§4.5);
// read-write transactions may read locked records optimistically, because
// commit-time validation (with the record locked) decides. Uncommittable
// (odd-seq) records are never returned in replicated mode: seq-equality
// validation cannot tell "still mid-replication" from "unchanged", so a
// reader must wait for the makeup flip (Table 4). carry lists read-set
// entries on node whose headers ride behind the record READ (carryTo); each
// is confirmed with roConfirm, and one that fails aborts the read.
func (tx *Txn) remoteRead(node rdma.NodeID, table memstore.TableID, key uint64, checkLock bool, carry []int32) (rsEntry, error) {
	tbl := tx.w.E.M.Store.Table(table)
	if tbl == nil {
		return rsEntry{}, fmt.Errorf("txn: unknown table %d", table)
	}
	qp := tx.w.QP(node)
	loc, err := tx.w.Locate(node, tbl, key, false)
	if err != nil {
		return rsEntry{}, err
	}
	// The record lands in a carve, not the attempt's scratch, so the read
	// set keeps its value without a copy: the value is gathered in place,
	// to the front of the same carve, and the rest given back. Nothing else
	// of this transaction carves until the read returns.
	img := tx.carve(tbl.RecBytes)
	var hdrs [maxCarry]*rdma.Pending
	for attempt := 0; attempt < 256; attempt++ {
		// The record fetch is a full fabric round-trip: issue it async and
		// yield so other in-flight transactions run while it is outstanding.
		var comp rdma.Completion
		if len(carry) == 0 {
			img, comp = qp.ReadAsync(loc.Off, tbl.RecBytes, img)
		} else {
			b := tx.batch()
			rec := b.PostRead(qp, loc.Off, tbl.RecBytes)
			rec.Data = img
			for i, j := range carry {
				hdrs[i] = b.PostRead(qp, tx.rs[j].off, 24)
			}
			comp = b.ExecuteAsync()
			img = rec.Data
			// The headers are the read-only commit's validation, moved onto
			// this doorbell: counted there, with no doorbell of their own.
			tx.w.Stats.ROVerbs += uint64(len(carry))
			tx.w.Stats.Phases[PhaseROValidate].Verbs += uint64(len(carry))
		}
		if err := tx.w.await(comp); err != nil {
			return rsEntry{}, tx.abortAt(node, AbortNodeDead, "read verb")
		}
		for i, j := range carry {
			if err := tx.roConfirm(&tx.rs[j], hdrs[i].Data); err != nil {
				return rsEntry{}, err
			}
		}
		if !memstore.VersionsConsistent(img) {
			tx.w.Backoff(BackoffRemoteRead, attempt) // torn racing write; retry
			continue
		}
		inc := memstore.RecInc(img)
		if inc&memstore.IncLocMask != loc.Inc {
			// Stale cached location: the record was freed (and maybe
			// reused). Re-resolve through the index.
			if loc, err = tx.w.Locate(node, tbl, key, true); err != nil {
				return rsEntry{}, err
			}
			continue
		}
		if checkLock {
			if lockW := memstore.RecLock(img); lockW != 0 {
				tx.w.maybeReleaseDangling(tx.cfg, node, loc.Off, lockW)
				tx.w.Backoff(BackoffRemoteRead, attempt)
				continue
			}
		}
		if tx.w.E.Replicated && !memstore.SeqIsCommittable(memstore.RecSeq(img)) {
			// Uncommittable record mid-replication: wait for the makeup flip
			// rather than serialize on an un-replicated half-commit.
			tx.w.Backoff(BackoffRemoteRead, attempt)
			continue
		}
		seq := memstore.RecSeq(img)
		memstore.GatherValueInto(img, img, tbl.Spec.ValueSize)
		return rsEntry{
			table: table, key: key, off: loc.Off, node: node,
			seq: seq, inc: inc,
			val: tx.shrink(img, tbl.Spec.ValueSize),
		}, nil
	}
	return rsEntry{}, tx.abortOn(node, table, key, AbortStale, "remote record never stabilized")
}

// Locate returns where key's record of tbl lives on node: the location
// cache's entry (§6.3), or — on a miss, or when stale says the entry names a
// freed record — the one a walk of node's hash index finds, which replaces
// it.
func (w *Worker) Locate(node rdma.NodeID, tbl *memstore.Table, key uint64, stale bool) (cluster.Loc, error) {
	lk := cluster.LocKey{Node: node, Table: tbl.ID, Key: key}
	if stale {
		w.E.locCache.Drop(lk)
	} else if loc, ok := w.E.locCache.Get(lk); ok {
		return loc, nil
	}
	loc, err := w.remoteLookup(w.QP(node), tbl, key)
	if err == nil {
		w.E.locCache.Put(lk, loc)
	}
	return loc, err
}

// remoteLookup walks the remote hash index (cluster.LookupRemote), each READ
// awaited as a yield point.
func (w *Worker) remoteLookup(qp *rdma.QP, tbl *memstore.Table, key uint64) (cluster.Loc, error) {
	loc, found, err := cluster.LookupRemote(qp, tbl, key, w.await)
	switch {
	case err != nil:
		// Commit-time callers (resolveWriteOffsets) re-stamp Stage.
		return loc, &Error{Reason: AbortNodeDead, Stage: StageExec, Site: uint16(qp.Remote()), Detail: "index lookup verb"}
	case !found:
		return loc, ErrNotFound
	}
	return loc, nil
}

// maybeReleaseDangling implements §5.2's passive lock release: a lock whose
// owner is not a member of the current configuration was left by a failed
// machine and may be cleared (with RDMA CAS, as all lock operations). A
// machine installs a configuration only once every member has redone its
// rings for it (cluster's recovery barrier), so the dead owner's logged
// updates to the record have landed by then.
func (w *Worker) maybeReleaseDangling(cfg *cluster.Config, node rdma.NodeID, off uint64, lockW uint64) {
	owner, held := memstore.LockOwner(lockW)
	if !held {
		return
	}
	if cfg.IsMember(rdma.NodeID(owner)) {
		return
	}
	// Use the freshest configuration to double-check (the snapshot may
	// predate a reconfiguration that re-admitted nothing).
	cur := w.E.M.Config()
	if cur.IsMember(rdma.NodeID(owner)) {
		return
	}
	_, _, _ = w.QP(node).CAS(off+memstore.LockOff, lockW, 0)
}

// Store returns the local machine's memory store, for workload-level index
// probes (ordered scans resolve candidate keys through the local B+-tree and
// then read the records back through the protocol, Silo-style).
func (tx *Txn) Store() *memstore.Store { return tx.w.E.M.Store }
