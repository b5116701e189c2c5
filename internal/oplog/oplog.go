// Package oplog implements DrTM+R's replication logs (§5.1): per-peer ring
// buffers in each machine's battery-backed NVRAM, appended to with one-sided
// RDMA WRITEs by transaction coordinators (R.1 of the revised commit
// protocol) and drained by auxiliary threads on the backup machine — the
// paper reserves two cores per machine for exactly this log truncation work.
//
// Wire format. Every entry starts on a cacheline so the 16-byte header can
// be published with a single line-atomic write *after* the payload: a reader
// that sees a non-zero length word is guaranteed a complete entry, and a
// coordinator that dies mid-append leaves a zero header behind — the entry
// simply never happened, which is exactly the race the optimistic
// replication scheme tolerates (the primary's record stays uncommittable).
//
//	entry  := hdr payload
//	hdr    := len u32 | magic u16 | nRecs u16 | txnID u64        (16 B)
//	payload:= rec*
//	rec    := kind u8 | table u8 | shard u16 | valLen u32 | key u64 | seq u64 | value
//
// Records are applied idempotently and order-independently by one rule
// (Install), which also serves recovery's redo and the inserts and deletes a
// transaction ships to a record's host (§4.3): an update is installed only
// if its sequence number exceeds the record's current one, an insert only if
// its key is absent, and a delete of an absent key is done already, so
// replays and cross-ring races are harmless.
//
// One-doorbell append (FaRM-style commit records). A transaction's
// replication step posts its entry to EVERY relevant ring in one doorbell:
// per ring, the payload WRITE and then the header WRITE on the same queue
// pair. A queue pair executes its verbs in post order and a dead target
// fails every verb posted to it, so a published header implies its own
// payload landed. Each entry carries the transaction's full write set, so
// the recovery protocol may REDO the whole transaction from any single
// published entry; a coordinator that dies before its doorbell leaves the
// transaction invisible everywhere. To keep redo possible until the
// transaction has fully committed (C.5/C.6 done), appliers APPLY published
// entries eagerly but TRUNCATE only up to a watermark the coordinator
// advances — lazily, batched — once its transactions are complete.
package oplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

// Entry kinds.
const (
	KindUpdate = 1
	KindInsert = 2
	KindDelete = 3
)

// RecHeader is the bytes a record carries ahead of its value, in a log
// entry and in a SEND that ships it.
const RecHeader = 24

const (
	hdrBytes = 16
	magic    = 0xD47B
	// skipLen marks "rest of ring is padding, continue at wrap".
	skipLen = ^uint32(0)
)

// Rec is one logged record mutation. Shard carries the record's partition so
// an applier can decide whether the record belongs to a shard it replicates
// (entries contain the transaction's full write set).
type Rec struct {
	Kind  uint8
	Table memstore.TableID
	Shard uint16
	Key   uint64
	Seq   uint64
	Value []byte
}

// Encode serializes a batch of recs into a ring entry image (header
// included), padded to whole cachelines.
func Encode(txnID uint64, recs []Rec) []byte { return AppendEncode(nil, txnID, recs) }

// AppendEncode appends Encode's image of recs to dst, so a writer that keeps
// its buffer encodes every entry without an allocation once the buffer has
// grown to its longest entry.
func AppendEncode(dst []byte, txnID uint64, recs []Rec) []byte {
	size := hdrBytes
	for _, r := range recs {
		size += RecHeader + len(r.Value)
		size = (size + 7) &^ 7
	}
	size = sim.AlignUp(size)
	base := len(dst)
	dst = slices.Grow(dst, size)[:base+size]
	buf := dst[base:]
	clear(buf)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(size))
	binary.LittleEndian.PutUint16(buf[4:6], magic)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(recs)))
	binary.LittleEndian.PutUint64(buf[8:16], txnID)
	pos := hdrBytes
	for _, r := range recs {
		buf[pos] = r.Kind
		buf[pos+1] = uint8(r.Table)
		binary.LittleEndian.PutUint16(buf[pos+2:pos+4], r.Shard)
		binary.LittleEndian.PutUint32(buf[pos+4:pos+8], uint32(len(r.Value)))
		binary.LittleEndian.PutUint64(buf[pos+8:pos+16], r.Key)
		binary.LittleEndian.PutUint64(buf[pos+16:pos+24], r.Seq)
		copy(buf[pos+RecHeader:], r.Value)
		pos += RecHeader + len(r.Value)
		pos = (pos + 7) &^ 7
	}
	return dst
}

// Decode parses an entry image (without trusting anything beyond its
// declared geometry; corrupt entries return an error) and appends its records
// to recs. A record's Value aliases buf: it is valid for as long as buf holds
// the entry, and a caller that keeps a value past that copies it.
func Decode(buf []byte, recs []Rec) (txnID uint64, _ []Rec, err error) {
	if len(buf) < hdrBytes {
		return 0, recs, errors.New("oplog: short entry")
	}
	if binary.LittleEndian.Uint16(buf[4:6]) != magic {
		return 0, recs, errors.New("oplog: bad magic")
	}
	n := int(binary.LittleEndian.Uint16(buf[6:8]))
	txnID = binary.LittleEndian.Uint64(buf[8:16])
	pos := hdrBytes
	for i := 0; i < n; i++ {
		if pos+RecHeader > len(buf) {
			return 0, recs, errors.New("oplog: truncated record header")
		}
		vl := int(binary.LittleEndian.Uint32(buf[pos+4 : pos+8]))
		if pos+RecHeader+vl > len(buf) {
			return 0, recs, errors.New("oplog: truncated value")
		}
		recs = append(recs, Rec{
			Kind:  buf[pos],
			Table: memstore.TableID(buf[pos+1]),
			Shard: binary.LittleEndian.Uint16(buf[pos+2 : pos+4]),
			Key:   binary.LittleEndian.Uint64(buf[pos+8 : pos+16]),
			Seq:   binary.LittleEndian.Uint64(buf[pos+16 : pos+24]),
			Value: buf[pos+RecHeader : pos+RecHeader+vl : pos+RecHeader+vl],
		})
		pos += RecHeader + vl
		pos = (pos + 7) &^ 7
	}
	return txnID, recs, nil
}

// Geometry fixes where a ring lives inside the target machine's memory:
// Base..Base+Size is the buffer; the head pointer (a logical position
// maintained by the target's applier, read remotely by writers when they run
// out of space) lives at HeadOff; the truncation watermark (a logical
// position written remotely by the ring's owner as its transactions fully
// commit) lives at MarkOff.
type Geometry struct {
	Base    uint64
	Size    uint64
	HeadOff uint64
	MarkOff uint64
}

// Writer is the source side of one ring: machine src appending to the log
// region it owns inside machine dst. All of src's worker threads share it
// (hence the mutex: on real hardware this would be a reliable-connected QP
// per thread writing to reserved slots; serializing appends is the simple
// faithful equivalent).
type Writer struct {
	geo Geometry

	mu   sync.Mutex
	tail uint64 // logical position; authoritative (only we write this ring)
	head uint64 // cached remote head (refresh on pressure)
	// committed: txns below this logical position are fully committed;
	// pushed: the last watermark written to the remote side (written under
	// mu). Both are read without mu, which an appender waiting for ring space
	// holds until it moves.
	committed, pushed atomic.Uint64
	// wake is signalled when committed runs a push's worth (Size/8) ahead of
	// pushed (WakeOn).
	wake chan<- struct{}
}

// NewWriter creates the writer-side handle.
func NewWriter(geo Geometry) *Writer {
	return &Writer{geo: geo}
}

// WakeOn makes MarkCommitted signal ch, without blocking, whenever the
// committed watermark is at least Size/8 ahead of the one last pushed: the
// thread that pushes watermarks (PushWatermark) waits on ch. Call it before
// the writer is shared.
func (w *Writer) WakeOn(ch chan<- struct{}) { w.wake = ch }

// Token identifies an entry Post put into a batch. Once the batch has
// executed, Landed tells whether the entry is published.
type Token struct {
	pos     uint64 // logical start
	n       uint64
	payload *rdma.Pending // nil for a one-line entry
	hdr     *rdma.Pending
}

// End returns the logical position just past the entry (for MarkCommitted).
func (tk Token) End() uint64 { return tk.pos + tk.n }

// Landed reports whether every verb of the entry succeeded, once the batch
// it was posted into has executed: the entry is then published in full.
func (tk Token) Landed() bool {
	return tk.hdr.Err == nil && (tk.payload == nil || tk.payload.Err == nil)
}

// Post reserves space for entry and posts it into b, all on qp: a WRITE of
// everything past the first cacheline (none for a one-line entry), then the
// single line-atomic WRITE of the first cacheline, which holds the header.
// The queue pair executes them in that order, so the header never lands
// without its payload. Blocks while the ring is full. The verbs execute when
// the caller rings b; replication posts to every ring into ONE batch, so the
// whole fan-out costs one base write latency.
func (w *Writer) Post(qp *rdma.QP, b *rdma.Batch, entry []byte) (Token, error) {
	if len(entry)%sim.CachelineSize != 0 {
		return Token{}, fmt.Errorf("oplog: entry not cacheline padded (%d)", len(entry))
	}
	need := uint64(len(entry))
	if need > w.geo.Size/2 {
		return Token{}, fmt.Errorf("oplog: entry of %d bytes exceeds half the ring", need)
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	// Wrap: if the entry doesn't fit before the physical end, mark the
	// remainder as skip and continue at the next wrap boundary.
	if off := w.tail % w.geo.Size; off+need > w.geo.Size {
		var skip [8]byte
		binary.LittleEndian.PutUint32(skip[0:4], skipLen)
		if err := w.waitSpace(qp, w.geo.Size-off); err != nil {
			return Token{}, err
		}
		if err := qp.Write(w.geo.Base+off, skip[:]); err != nil {
			return Token{}, err
		}
		w.tail += w.geo.Size - off
	}
	if err := w.waitSpace(qp, need); err != nil {
		return Token{}, err
	}
	tk := Token{pos: w.tail, n: need}
	w.tail += need
	off := w.geo.Base + tk.pos%w.geo.Size
	if len(entry) > sim.CachelineSize {
		tk.payload = b.PostWrite(qp, off+sim.CachelineSize, entry[sim.CachelineSize:])
	}
	tk.hdr = b.PostWrite(qp, off, entry[:sim.CachelineSize])
	return tk, nil
}

// Append is the one-shot Post for callers that do not share the doorbell
// with other rings (single-ring replication, tests). The entry is marked
// committed immediately, so the applier may truncate it after applying.
func (w *Writer) Append(qp *rdma.QP, entry []byte) error {
	b := qp.Batch()
	tk, err := w.Post(qp, b, entry)
	if err != nil {
		return err
	}
	if err := b.Execute(); err != nil {
		return err
	}
	w.MarkCommitted(tk.End())
	return w.PushWatermark(qp, true)
}

// MarkCommitted records that every entry below end belongs to a fully
// committed transaction and may be truncated by the applier. The watermark
// is pushed to the remote side lazily (PushWatermark) to amortize verbs.
func (w *Writer) MarkCommitted(end uint64) {
	for {
		c := w.committed.Load()
		if end <= c {
			return
		}
		if w.committed.CompareAndSwap(c, end) {
			break
		}
	}
	if end-w.pushed.Load() >= w.geo.Size/8 {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// PushWatermark writes the committed watermark to the remote ring if it
// moved. force pushes even small advances (used on ring pressure and at
// shutdown). An appender holding the writer pushes it itself while it waits
// for space, so this gives way: the caller goes on draining its own rings.
func (w *Writer) PushWatermark(qp *rdma.QP, force bool) error {
	c, p := w.committed.Load(), w.pushed.Load()
	if c == p || !force && c-p < w.geo.Size/8 || !w.mu.TryLock() {
		return nil
	}
	defer w.mu.Unlock()
	return w.push(qp)
}

// push writes the committed watermark to the remote ring if it is ahead of
// the one pushed. w.mu is held, so pushes land in order and the remote
// watermark never moves back.
func (w *Writer) push(qp *rdma.QP) error {
	c := w.committed.Load()
	if c <= w.pushed.Load() {
		return nil
	}
	if err := qp.Write64(w.geo.MarkOff, c); err != nil {
		return err
	}
	w.pushed.Store(c)
	return nil
}

// waitSpace ensures need bytes fit between tail and head, refreshing the
// cached head over RDMA while the ring is full. Ring pressure also forces
// the watermark out, since the applier cannot truncate past it.
func (w *Writer) waitSpace(qp *rdma.QP, need uint64) error {
	for w.tail+need > w.head+w.geo.Size {
		if err := w.push(qp); err != nil {
			return err
		}
		h, err := qp.Read64(w.geo.HeadOff)
		if err != nil {
			return err
		}
		if h == w.head {
			// Applier hasn't caught up; yield and retry.
			sim.Spin(0)
			continue
		}
		w.head = h
	}
	return nil
}

// Applier is the target side of one ring: the auxiliary thread state that
// drains entries, applies them to the backup store, and truncates (zeroes
// consumed space and advances the head) — but only up to the coordinator's
// watermark, so that recovery can still redo from un-truncated entries.
type Applier struct {
	eng   *htm.Engine
	store *memstore.Store
	geo   Geometry
	// replicates tells whether a shard currently belongs to this machine
	// (as primary or backup); records of other shards inside an entry's
	// full write set are skipped. nil means "replicate everything".
	replicates func(shard uint16) bool

	// mu serializes the drain paths: the steady-state auxiliary thread
	// Polls concurrently with reconfiguration's recovery drain (Poll/Scan
	// from the config-watcher goroutine).
	mu sync.Mutex

	head    uint64 // truncation frontier (logical)
	applied uint64 // apply frontier (logical), >= head
	img     []byte // Poll's record-image scratch (installValue)
	buf     []byte // the entry image peek read last
	recs    []Rec  // buf's records, decoded in place (their values alias buf)
	zeros   []byte // zero's source, grown to the longest span zeroed
}

// NewApplier creates the applier for a ring hosted in eng's memory.
func NewApplier(eng *htm.Engine, store *memstore.Store, geo Geometry, replicates func(shard uint16) bool) *Applier {
	return &Applier{eng: eng, store: store, geo: geo, replicates: replicates}
}

// Poll applies all newly published entries and truncates up to the
// watermark. Returns how many entries were applied.
func (a *Applier) Poll() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	// Apply phase: walk from the apply frontier. The frontier is bounded
	// by head+Size: beyond that, physical positions wrap onto entries
	// that have been applied but not yet zeroed, which must not be
	// re-read as fresh.
	for a.applied < a.head+a.geo.Size {
		entry, adv, err := a.peek(a.applied, true)
		if err != nil {
			return n, err
		}
		if adv == 0 {
			break
		}
		if entry != nil {
			if err := a.apply(entry); err != nil {
				return n, err
			}
			n++
		}
		a.applied += adv
	}
	a.truncate()
	return n, nil
}

// truncate zeroes and releases ring space up to min(applied, watermark).
func (a *Applier) truncate() {
	mark := a.eng.Load64NonTx(a.geo.MarkOff)
	limit := a.applied
	if mark < limit {
		limit = mark
	}
	start := a.head
	for a.head < limit {
		_, adv, err := a.peek(a.head, false)
		if err != nil || adv == 0 {
			break
		}
		if a.head+adv > limit {
			break // entry straddles the watermark; keep it
		}
		a.zero(a.head%a.geo.Size, adv)
		a.head += adv
	}
	if a.head != start {
		a.eng.Store64NonTx(a.geo.HeadOff, a.head)
	}
}

// Scan walks every published, un-truncated entry (recovery redo source). The
// records fn is handed, and their values, alias the applier's entry buffer:
// they are valid until fn returns, and fn copies whatever it keeps.
func (a *Applier) Scan(fn func(txnID uint64, recs []Rec) error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	pos := a.head
	for pos < a.head+a.geo.Size {
		entry, adv, err := a.peek(pos, true)
		if err != nil {
			return err
		}
		if adv == 0 {
			return nil
		}
		if entry != nil {
			txnID, recs, err := Decode(entry, a.recs[:0])
			a.recs = recs
			if err != nil {
				return err
			}
			if err := fn(txnID, recs); err != nil {
				return err
			}
		}
		pos += adv
	}
	return nil
}

// peek inspects the entry at logical position pos. Returns (nil, 0, nil)
// when no published entry is there, (nil, skipBytes, nil) for a wrap marker.
// The entry's image is read only if read is set, into a buffer the next
// peek reuses.
func (a *Applier) peek(pos uint64, read bool) (entry []byte, advance uint64, err error) {
	off := a.geo.Base + pos%a.geo.Size
	var hdr [8]byte
	a.eng.ReadNonTx(off, 8, hdr[:])
	l := binary.LittleEndian.Uint32(hdr[0:4])
	switch {
	case l == 0:
		return nil, 0, nil
	case l == skipLen:
		return nil, a.geo.Size - pos%a.geo.Size, nil
	}
	if uint64(l) > a.geo.Size/2 || l%sim.CachelineSize != 0 {
		return nil, 0, fmt.Errorf("oplog: corrupt length %d at pos %d", l, pos)
	}
	if read {
		a.buf = a.eng.ReadNonTx(off, int(l), a.buf)
		entry = a.buf
	}
	return entry, uint64(l), nil
}

func (a *Applier) zero(physOff, n uint64) {
	if uint64(len(a.zeros)) < n {
		a.zeros = make([]byte, n)
	}
	a.eng.WriteNonTx(a.geo.Base+physOff, a.zeros[:n])
}

// apply installs one entry into the backup store (Install), skipping shards
// this machine does not replicate. The records are decoded in place: each
// value aliases entry, the buffer peek reuses, and Install is done with it
// before the next peek.
func (a *Applier) apply(entry []byte) error {
	_, recs, err := Decode(entry, a.recs[:0])
	a.recs = recs
	if err != nil {
		return err
	}
	for _, r := range recs {
		if a.replicates != nil && !a.replicates(r.Shard) {
			continue
		}
		if _, err := Install(a.store, r, &a.img); err != nil {
			return err
		}
	}
	return nil
}

// Install applies one logged record to s, inside HTM regions (mutations on
// the machine that holds the record are local, §4.3), building an update's
// record image on *img. The one rule for a backup's applier, recovery's redo
// and a transaction's shipped inserts and deletes:
//   - an insert whose key is absent is created at r.Seq in one region;
//     one whose key is present is left alone, and off is 0, unless the
//     record is r's own insert (ownInsert);
//   - an update is installed if r.Seq is newer than the record's; an absent
//     record is created at r.Seq, as an insert would be;
//   - a delete removes the record; an absent one is fine, and off is 0.
//
// off is the record that holds r. Install may run beside Poll and other
// Installs: each caller brings its own img.
func Install(s *memstore.Store, r Rec, img *[]byte) (off uint64, err error) {
	tbl := s.Table(r.Table)
	if tbl == nil {
		return 0, fmt.Errorf("oplog: unknown table %d", r.Table)
	}
	switch r.Kind {
	case KindDelete:
		if err := tbl.Delete(r.Key); err != nil && !errors.Is(err, memstore.ErrKeyNotFound) {
			return 0, err
		}
		return 0, nil
	case KindInsert, KindUpdate:
		for {
			if off, ok := tbl.Lookup(r.Key); ok {
				if r.Kind == KindInsert {
					return ownInsert(s.Engine(), tbl, off, r, img), nil
				}
				installValue(s.Engine(), tbl, off, r, img)
				return off, nil
			}
			// An insert that lost a race for the key looks it up again.
			if off, err := tbl.InsertWithSeq(r.Key, r.Value, r.Seq); !errors.Is(err, memstore.ErrKeyExists) {
				return off, err
			}
		}
	default:
		return 0, fmt.Errorf("oplog: unknown kind %d", r.Kind)
	}
}

// ownInsert settles an insert whose key is present, at off. The record is
// r's own insert if it holds r's value and either
//   - is uncommittable (odd seq) below r.Seq: DrTM+R ships a remote insert
//     at seq 1 and R.1 logs it at its final seq, to the record's primary
//     too, so the entry advances it even if the coordinator dies before
//     C.5's flip; or
//   - is at r.Seq, a replicated final seq (even, not 0): under farm's
//     log-first commit the host's applier can apply the entry before the
//     insert ships.
//
// The first is advanced to r.Seq. Either returns the record's offset; any
// other record is left alone, and off is 0. A live record that holds r's
// value at r.Seq by chance passes the second test (DESIGN.md, known delta 1).
func ownInsert(eng *htm.Engine, tbl *memstore.Table, off uint64, r Rec, img *[]byte) uint64 {
	n := tbl.RecBytes
	if cap(*img) < 2*n {
		*img = make([]byte, 2*n)
	}
	have := eng.ReadNonTx(off, n, (*img)[:n])
	seq := memstore.RecSeq(have)
	want := memstore.BuildRecordImageInto((*img)[n:n], tbl.Spec.ValueSize, r.Value, memstore.RecInc(have), seq)
	switch {
	case !bytes.Equal(have[8:], want[8:]):
		return 0
	case seq%2 == 1 && seq < r.Seq:
		installValue(eng, tbl, off, r, img)
	case seq != r.Seq || seq%2 == 1 || seq == 0:
		return 0
	}
	return off
}

// installValue writes value+seq into the record at off if r.Seq advances it,
// building the image on *img. Retries yield to the scheduler: requester-wins
// conflict resolution can livelock two tight loops on an oversubscribed host
// otherwise.
func installValue(eng *htm.Engine, tbl *memstore.Table, off uint64, r Rec, img *[]byte) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			sim.Spin(time.Duration(attempt%64) * 200 * time.Nanosecond)
		}
		if installAttempt(eng, tbl, off, r, img) {
			return
		}
	}
}

// installAttempt is one HTM region of installValue; it reports whether the
// record now holds r.Seq or newer.
func installAttempt(eng *htm.Engine, tbl *memstore.Table, off uint64, r Rec, img *[]byte) bool {
	tx := eng.Begin()
	defer tx.Release()
	cur, err := tx.Load64(off + memstore.SeqOff)
	if err != nil {
		return false
	}
	if cur >= r.Seq {
		tx.Commit()
		return true // already newer (replay / cross-ring race)
	}
	inc, err := tx.Load64(off + memstore.IncOff)
	if err != nil {
		return false
	}
	*img = memstore.BuildRecordImageInto(*img, tbl.Spec.ValueSize, r.Value, inc, r.Seq)
	// Preserve the lock word (first 8 bytes): backup records are
	// never locked, but recovery may be mid-promotion.
	if err := tx.Write(off+8, (*img)[8:]); err != nil {
		return false
	}
	return tx.Commit() == nil
}
