package htm

import (
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"drtmr/internal/obs"
	"drtmr/internal/sim"
)

// Transaction status values, packed into one atomic word together with the
// abort cause, the XABORT code and the region's generation, so that the
// (state, cause, code) triple is always read and written atomically and an
// aborter can name the region it saw: bits 0-7 state, 8-15 cause, 16-23 code,
// 32-63 generation. Begin moves a reused Txn to the next generation.
const (
	statusActive uint64 = iota
	statusAborted
	statusCommitted
	statusFree // handed back by Release
)

const (
	stateMask = 0xff
	genMask   = uint64(0xffffffff00000000)
)

func packAborted(w uint64, cause AbortCause, code uint8) uint64 {
	return w&genMask | statusAborted | uint64(cause)<<8 | uint64(code)<<16
}

func unpack(w uint64) (state uint64, cause AbortCause, code uint8) {
	return w & stateMask, AbortCause(w >> 8 & 0xff), uint8(w >> 16 & 0xff)
}

// Txn is one hardware transaction (the code between XBEGIN and XEND).
//
// A Txn is owned by a single goroutine; only the abort path may touch it
// from outside, and that path synchronizes through the status word and the
// operation mutex.
type Txn struct {
	eng    *Engine
	status atomic.Uint64 // packed (state, cause, code, generation)

	// opMu serializes this transaction's own operations against external
	// abort cleanup. Cleanup (undo restore + deregistration) runs exactly
	// once, always under opMu: either by an external aborter that wins a
	// TryLock, or by the owner the moment an operation observes the
	// aborted status. An aborter never *blocks* on opMu — that would
	// deadlock two transactions aborting each other — it instead lets
	// the in-flight operation finish and clean up itself, and waits for
	// deregistration in its own retry loop.
	opMu    sync.Mutex
	cleaned bool // guarded by opMu

	// The footprint in registration order, which the capacity bounds count
	// and cleanup walks; membership is the registry's. A line read and then
	// written stays in readLines. undo[i*CachelineSize:] is writeLines[i]'s
	// pre-image. The arrays hold a local record read or a bucket mutation.
	readLines, writeLines []uint64
	undo                  []byte
	readBuf               [8]uint64
	writeBuf              [4]uint64
	undoBuf               [4 * sim.CachelineSize]byte

	// Tracing (nil rec = off). The end event is emitted only by OWNER-side
	// paths (Commit, selfAbort, checkActive) — never by extAbort, whose
	// cleanup may run on a foreign goroutine that must not touch the owner's
	// single-writer recorder. tended dedupes across those paths; tbegin is
	// the virtual XBEGIN timestamp.
	rec    *obs.Recorder
	tclk   *sim.Clock
	tid    uint64
	tbegin int64
	tended bool
}

// Trace arms trace recording for this hardware transaction: XBEGIN is
// stamped now from clk, and XEND/XABORT will emit one obs.EvHTM event onto
// rec carrying txn id (the protocol-level transaction this region serves),
// abort cause (0 = committed) and XABORT code.
func (t *Txn) Trace(rec *obs.Recorder, clk *sim.Clock, id uint64) {
	t.rec, t.tclk, t.tid = rec, clk, id
	t.tbegin = clk.Now()
}

// traceEnd emits the region's end event once. Callers are owner-side only
// (they hold opMu or own the Txn exclusively).
func (t *Txn) traceEnd(cause AbortCause, code uint8) {
	if t.rec == nil || t.tended {
		return
	}
	t.tended = true
	t.rec.Record(obs.EvHTM, uint8(cause), 0, uint32(code), t.tid, t.tbegin, t.tclk.Now())
}

// released holds the Txns of ended regions for Begin to reuse, with no
// engine: a pool inside an Engine would keep the engine and its arena alive
// for two garbage collections after its last use.
var released sync.Pool

// Begin starts a hardware transaction, on a Txn an ended region handed back
// with Release when there is one.
func (e *Engine) Begin() *Txn {
	t, _ := released.Get().(*Txn)
	if t == nil {
		t = new(Txn)
		t.readLines, t.writeLines, t.undo = t.readBuf[:0], t.writeBuf[:0], t.undoBuf[:0]
	}
	// An extAbort that lost to Release may still hold opMu; it re-checks the
	// status word there, so resetting under opMu keeps it off this region.
	t.opMu.Lock()
	t.eng = e
	t.status.Store(t.status.Load()&genMask + 1<<32)
	t.cleaned = false
	t.readLines, t.writeLines, t.undo = t.readLines[:0], t.writeLines[:0], t.undo[:0]
	t.tended = false
	t.opMu.Unlock()
	return t
}

// Release hands an ended region back for a later Begin, on any engine, to
// reuse; the owner must not touch t again. Releasing a region that is still
// active, or one already released, does nothing.
func (t *Txn) Release() {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	w := t.status.Load()
	if state := w & stateMask; state == statusActive || state == statusFree {
		return
	}
	t.releaseLocked(true) // a no-op unless an aborter's cleanup lost the TryLock
	t.status.Store(w&genMask | statusFree)
	t.eng, t.rec, t.tclk = nil, nil, nil // a pooled Txn pins no engine or worker
	released.Put(t)
}

// Active reports whether the transaction can still perform operations.
func (t *Txn) Active() bool { return t.status.Load()&stateMask == statusActive }

// abortErrs holds every error a region can end with, so an abort allocates
// nothing. Never written after init: callers only read through the pointers.
var abortErrs = func() (errs [CauseSpurious + 1][256]AbortError) {
	for c := range errs {
		for code := range errs[c] {
			errs[c][code] = AbortError{Cause: AbortCause(c), Code: uint8(code)}
		}
	}
	return errs
}()

// abortErr returns the error for the recorded cause.
func (t *Txn) abortErr() *AbortError {
	_, cause, code := unpack(t.status.Load())
	return &abortErrs[cause][code]
}

// checkActive returns nil if the transaction may proceed. If it was aborted
// externally, the owner runs cleanup here (it holds opMu) so the aborter's
// retry loop can make progress. Caller holds opMu.
func (t *Txn) checkActive() *AbortError {
	w := t.status.Load()
	if w&stateMask == statusActive {
		return nil
	}
	if w&stateMask == statusAborted {
		t.releaseLocked(true)
		_, cause, code := unpack(w)
		t.traceEnd(cause, code)
	}
	return t.abortErr()
}

// selfAbort is called by the owning goroutine (which holds opMu) to abort
// and clean up.
func (t *Txn) selfAbort(cause AbortCause, code uint8) *AbortError {
	if w := t.status.Load(); w&stateMask == statusActive {
		t.status.CompareAndSwap(w, packAborted(w, cause, code))
	}
	t.releaseLocked(true)
	_, cause, code = unpack(t.status.Load())
	t.traceEnd(cause, code)
	return t.abortErr()
}

// extAbort aborts the transaction from outside (conflicting access), if it
// still is the active region of status word w, which the caller read while
// the region was registered on one of its lines. The caller must hold NO
// shard locks and must not block on the victim: if the victim is
// mid-operation it will clean itself up on exit. The caller's retry loop
// observes completion as deregistration from the line registry. Outside opMu
// only the status word is read, never t.eng, which Begin rewrites when it
// reuses t.
func (t *Txn) extAbort(w uint64, cause AbortCause) {
	aborted := packAborted(w, cause, 0)
	if !t.status.CompareAndSwap(w, aborted) {
		return
	}
	if t.opMu.TryLock() {
		// The owner may have cleaned up, released t and begun the next
		// region on it between the CAS and the TryLock.
		if t.status.Load() == aborted {
			t.releaseLocked(true)
		}
		t.opMu.Unlock()
	}
}

// releaseLocked deregisters every line of the footprint, first restoring a
// written line's pre-image if the region aborted (restore). Caller holds
// opMu. Idempotent.
func (t *Txn) releaseLocked(restore bool) {
	if t.cleaned {
		return
	}
	t.cleaned = true
	for i, lineIdx := range t.writeLines {
		s := t.eng.shardFor(lineIdx)
		s.mu.Lock()
		if restore {
			off := lineIdx << sim.CachelineShift
			copy(t.eng.mem[off:off+sim.CachelineSize], t.undo[i<<sim.CachelineShift:])
		}
		if j := s.find(lineIdx); j >= 0 && s.lines[j].writer == t {
			s.lines[j].writer = nil
			s.maybeDrop(j)
		}
		s.mu.Unlock()
	}
	for _, lineIdx := range t.readLines {
		s := t.eng.shardFor(lineIdx)
		s.mu.Lock()
		if j := s.find(lineIdx); j >= 0 {
			s.lines[j].dropReader(t)
			s.maybeDrop(j)
		}
		s.mu.Unlock()
	}
}

func (ln *line) dropReader(t *Txn) {
	for i, r := range ln.readers {
		if r == t {
			last := len(ln.readers) - 1
			ln.readers[i] = ln.readers[last]
			ln.readers[last] = nil
			ln.readers = ln.readers[:last]
			return
		}
	}
}

// victim is a running region an access must abort, with the status word it
// was seen in under the shard lock: extAbort aborts that generation only.
type victim struct {
	t *Txn
	w uint64
}

// conflicts appends to vs the running regions an access by self (nil for a
// non-transactional one) must abort: the line's writer, and for a write its
// readers too. pending reports an ended region still registered, which is
// mid-cleanup. Caller holds the shard lock.
func (ln *line) conflicts(self *Txn, write bool, vs []victim) (_ []victim, pending bool) {
	see := func(r *Txn) {
		if w := r.status.Load(); w&stateMask == statusActive {
			vs = append(vs, victim{r, w})
		} else {
			pending = true
		}
	}
	if ln.writer != nil && ln.writer != self {
		see(ln.writer)
	}
	if write {
		for _, r := range ln.readers {
			if r != self {
				see(r)
			}
		}
	}
	return vs, pending
}

// abortVictims aborts what conflicts collected, after the shard lock is
// released (a victim's cleanup takes shard locks), or lets a victim that is
// mid-cleanup finish.
func abortVictims(vs []victim, pending bool) {
	for _, v := range vs {
		v.t.extAbort(v.w, CauseConflict)
	}
	if pending && len(vs) == 0 {
		runtime.Gosched()
	}
}

// acquireLine registers this transaction on lineIdx, aborting conflicting
// transactions (requester wins). asWriter also saves undo data. Returns an
// AbortError if this transaction itself was aborted or hit a capacity limit.
//
// Caller holds opMu.
func (t *Txn) acquireLine(lineIdx uint64, asWriter bool) *AbortError {
	for {
		if err := t.checkActive(); err != nil {
			return err
		}
		s := t.eng.shardFor(lineIdx)
		s.mu.Lock()
		i := s.find(lineIdx)
		if i >= 0 {
			ln := &s.lines[i]
			var buf [4]victim
			if vs, pending := ln.conflicts(t, asWriter, buf[:0]); len(vs) > 0 || pending {
				s.mu.Unlock()
				abortVictims(vs, pending)
				continue // registry changed; retry
			}
			// A line this region already writes needs nothing more, and
			// neither does a re-read of one it already reads.
			if ln.writer == t || !asWriter && slices.Contains(ln.readers, t) {
				s.mu.Unlock()
				return nil
			}
		}
		// No conflicts, and the line is new to the footprint. Capacity is
		// checked before an entry exists, so an abort here leaves none.
		if asWriter && len(t.writeLines) >= t.eng.cfg.MaxWriteLines ||
			!asWriter && len(t.readLines) >= t.eng.cfg.MaxReadLines {
			s.mu.Unlock()
			return t.selfAbort(CauseCapacity, 0)
		}
		if i < 0 {
			i = len(s.lines)
			s.lines = slices.Grow(s.lines, 1)[:i+1]
			s.lines[i].idx = lineIdx
		}
		ln := &s.lines[i]
		if asWriter {
			off := lineIdx << sim.CachelineShift
			t.writeLines = append(t.writeLines, lineIdx)
			t.undo = append(t.undo, t.eng.mem[off:off+sim.CachelineSize]...)
			ln.writer = t
			// A writer subsumes its own read registration.
			ln.dropReader(t)
		} else {
			t.readLines = append(t.readLines, lineIdx)
			ln.readers = append(ln.readers, t)
		}
		s.mu.Unlock()
		return nil
	}
}

// Read copies n bytes at offset off into buf and returns buf[:n]. If buf is
// nil or too small a new slice is allocated.
func (t *Txn) Read(off uint64, n int, buf []byte) ([]byte, error) {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if err := t.checkActive(); err != nil {
		return nil, err
	}
	if t.eng.spurious() {
		return nil, t.selfAbort(CauseSpurious, 0)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if n == 0 {
		return buf, nil
	}
	first := sim.LineOf(uintptr(off))
	last := sim.LineOf(uintptr(off) + uintptr(n) - 1)
	for li := first; li <= last; li++ {
		//drtmr:allow lockorder opMu is this txn's own op mutex; aborters only TryLock it (never block), so the requester-wins spin inside acquireLine cannot deadlock and MUST run under opMu for cleanup atomicity
		if err := t.acquireLine(li, false); err != nil {
			return nil, err
		}
	}
	// All lines registered; requester-wins means nobody changes them
	// without first aborting us, and cleanup (undo restore) can only run
	// under opMu, which we hold — so this copy is a consistent snapshot
	// provided we are still active afterwards.
	copy(buf, t.eng.mem[off:off+uint64(n)])
	if err := t.checkActive(); err != nil {
		return nil, err
	}
	return buf, nil
}

// Load64 reads a little-endian uint64 at off.
func (t *Txn) Load64(off uint64) (uint64, error) {
	var tmp [8]byte
	b, err := t.Read(off, 8, tmp[:])
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Write stores data at offset off.
func (t *Txn) Write(off uint64, data []byte) error {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if err := t.checkActive(); err != nil {
		return err
	}
	if t.eng.spurious() {
		return t.selfAbort(CauseSpurious, 0)
	}
	n := len(data)
	if n == 0 {
		return nil
	}
	first := sim.LineOf(uintptr(off))
	last := sim.LineOf(uintptr(off) + uintptr(n) - 1)
	for li := first; li <= last; li++ {
		//drtmr:allow lockorder opMu is this txn's own op mutex; aborters only TryLock it (never block), so the requester-wins spin inside acquireLine cannot deadlock and MUST run under opMu for cleanup atomicity
		if err := t.acquireLine(li, true); err != nil {
			return err
		}
	}
	copy(t.eng.mem[off:off+uint64(n)], data)
	if err := t.checkActive(); err != nil {
		return err
	}
	return nil
}

// Store64 writes a little-endian uint64 at off.
func (t *Txn) Store64(off uint64, v uint64) error {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return t.Write(off, tmp[:])
}

// Abort executes XABORT with the given 8-bit code.
func (t *Txn) Abort(code uint8) error {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if err := t.checkActive(); err != nil {
		return err
	}
	return t.selfAbort(CauseExplicit, code)
}

// Commit executes XEND. On success all writes become visible atomically (in
// this simulation they are already in place; commit makes them permanent and
// releases conflict tracking). Returns an AbortError if the transaction was
// aborted.
func (t *Txn) Commit() error {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if t.Active() && t.eng.spurious() {
		return t.selfAbort(CauseSpurious, 0)
	}
	if w := t.status.Load(); w&stateMask != statusActive || !t.status.CompareAndSwap(w, w&genMask|statusCommitted) {
		w = t.status.Load()
		if w&stateMask == statusAborted {
			t.releaseLocked(true)
			_, cause, code := unpack(w)
			t.traceEnd(cause, code)
		}
		return t.abortErr()
	}
	t.releaseLocked(false)
	t.traceEnd(0, 0)
	return nil
}
