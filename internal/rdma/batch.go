package rdma

import (
	"time"

	"drtmr/internal/obs"
	"drtmr/internal/sim"
)

// Doorbell batching (§7 of the "Comprehensive Framework of RDMA-enabled
// Concurrency Control Protocols" survey; FaRM does the same for its lock and
// validate phases). Real NICs let a sender post many work requests to one or
// more QPs and ring the doorbell once: the verbs issue back-to-back, their
// round-trips overlap, and the sender blocks only until the LAST completion.
// A K-verb batch therefore costs roughly one base latency plus the per-NIC
// serialization of K wire messages — not K full round-trips.
//
// Batch models exactly that for the simulated fabric: verbs are posted
// without advancing the worker's virtual clock, and Execute charges
//
//	max(per-target NIC queueing) + one base latency (the slowest verb kind)
//
// while still routing every verb through the target machine's HTM engine
// individually, in issue order — per-cacheline atomicity, HCA-level CAS
// serialization and abort-on-conflict against running HTM transactions are
// identical to the synchronous QP verbs. Only the latency accounting and the
// overlap of round-trips change.
//
// The sequential mode (SetSequential) disables the overlap and charges every
// posted verb exactly like its synchronous QP counterpart — one full base
// latency each. It exists as an ablation/baseline knob so experiments can
// measure what doorbell batching buys.

// batchVerb discriminates posted verb kinds.
type batchVerb uint8

const (
	verbRead batchVerb = iota
	verbRead64
	verbWrite
	verbWrite64
	verbCAS
)

// Pending is the completion slot of one posted verb. Result fields are valid
// after Execute returns, until Reset: Data for PostRead, Val for PostRead64,
// Prev/Swapped for PostCAS. Err is ErrNodeDead if the target died before
// execution.
type Pending struct {
	verb batchVerb
	qp   *QP
	off  uint64
	n    int    // PostRead length
	data []byte // PostWrite payload; must stay unmodified until Execute
	old  uint64 // PostCAS expected value
	arg  uint64 // PostCAS new value / PostWrite64 value

	Data    []byte
	Val     uint64
	Prev    uint64
	Swapped bool
	Err     error
}

// base is the verb's full round-trip latency under prof.
func (p *Pending) base(prof LatencyProfile) time.Duration {
	switch p.verb {
	case verbRead, verbRead64:
		return prof.Read
	case verbWrite, verbWrite64:
		return prof.Write
	case verbCAS:
		return prof.CAS
	}
	return 0
}

// wireBytes is the verb's payload size on the wire (headers added by book).
func (p *Pending) wireBytes() int {
	switch p.verb {
	case verbRead:
		return p.n
	case verbWrite:
		return len(p.data)
	default:
		return 8
	}
}

// issue is the one place a one-sided verb meets the wire and the target: its
// bytes queue on both endpoints' NICs from virtual instant t, it runs against
// the target's memory, and the instant its last byte has left is returned.
// The synchronous QP verbs, ReadAsync and both accountings of a doorbell
// differ only in the t they pass and in what they do with the answer, so
// anything that must happen to EVERY verb — a fault plane's per-link delay or
// error on the k-th verb, a per-verb trace point — goes here, once.
func (p *Pending) issue(t int64) int64 {
	end := book(p.qp.local, p.qp.remote, t, p.wireBytes())
	p.perform()
	return end
}

// perform routes the verb through the target machine's HTM engine:
// non-transactional access (aborts conflicting HTM transactions),
// per-cacheline atomicity, and the target NIC's atomic lock for CAS.
func (p *Pending) perform() {
	nic := p.qp.remote
	switch p.verb {
	case verbRead:
		nic.stats.Reads.Add(1)
		// Sized here and filled in place: storing ReadNonTx's result back
		// through p would make every caller's buffer escape, and the
		// synchronous verbs read into stack arrays (a bucket image, a record
		// header; TestHotpathAllocFree).
		if cap(p.Data) < p.n {
			p.Data = make([]byte, p.n)
		}
		p.Data = p.Data[:p.n]
		nic.eng.ReadNonTx(p.off, p.n, p.Data)
	case verbRead64:
		nic.stats.Reads.Add(1)
		p.Val = nic.eng.Load64NonTx(p.off)
	case verbWrite:
		nic.stats.Writes.Add(1)
		nic.eng.WriteNonTx(p.off, p.data)
		nic.landed(p.off, uint64(len(p.data)))
	case verbWrite64:
		nic.stats.Writes.Add(1)
		nic.eng.Store64NonTx(p.off, p.arg)
		nic.landed(p.off, 8)
	case verbCAS:
		nic.stats.Atomics.Add(1)
		nic.atomicsMu.Lock()
		//drtmr:allow lockorder IBV_ATOMIC_HCA semantics: atomicsMu serializes RDMA atomics while the engine drains conflicting HTM regions; the spin is bounded by region length and no coroutine parks under it
		p.Prev, p.Swapped = nic.eng.CAS64NonTx(p.off, p.old, p.arg)
		nic.atomicsMu.Unlock()
	}
}

// Batch collects posted verbs (possibly to many QPs) for one doorbell.
// A Batch belongs to one worker thread; it is not safe for concurrent use.
//
// Ordering contract: verbs posted to ONE QP execute at the target in post
// order, each seeing the memory effects of those before it — the guarantee a
// reliable-connection queue pair gives its work requests — under batched and
// sequential accounting alike, and a target that has died fails every verb
// posted to it, not a prefix. The commit pipeline depends on it twice: a READ
// posted behind a lock CAS sees the record as the CAS left it, and a record's
// write-back WRITE has landed when the unlock CAS posted behind it clears the
// lock word (internal/txn Worker.LockBatch, finish). Nothing is promised between
// different QPs of one batch. TestBatchPerQPOrder holds the contract.
//
// Slot lifetime: the Pending a Post returns, and the buffer a READ without
// one of its caller's lands in, stay valid across the batch's later doorbells
// until its next Reset, which hands them all back for later posts to reuse.
type Batch struct {
	clk   *sim.Clock
	ops   []*Pending // posted since the last doorbell, in post order
	slots []Pending  // handed out since the last Reset (take)
	data  []byte     // READ landing buffers handed out since the last Reset
	seq   bool
	rec   *obs.Recorder // nil = tracing off (the fast path)
}

// SetRecorder attaches a trace recorder: each executed doorbell emits one
// event spanning post → completion (virtual time) with its verb count and
// target node. nil detaches.
func (b *Batch) SetRecorder(r *obs.Recorder) { b.rec = r }

// recordDoorbell emits the doorbell trace event for the n verbs just
// executed. Site is the single target node, or obs.SiteMulti when the batch
// fanned out to several.
func (b *Batch) recordDoorbell(n int, start, end int64) {
	site := obs.SiteMulti
	for i, p := range b.ops {
		t := uint16(p.qp.remote.node)
		if i == 0 {
			site = t
		} else if site != t {
			site = obs.SiteMulti
			break
		}
	}
	b.rec.Record(obs.EvDoorbell, 0, site, uint32(n), 0, start, end)
}

// NewBatch creates a batch charging its virtual time to clk.
func NewBatch(clk *sim.Clock) *Batch { return &Batch{clk: clk} }

// Batch creates a batch on this QP's owning worker clock (convenience for
// callers that only hold a QP).
func (qp *QP) Batch() *Batch { return NewBatch(qp.clk) }

// SetSequential switches the batch to sequential accounting: Execute charges
// each verb a full base latency, exactly like the synchronous QP verbs (the
// no-doorbell ablation baseline).
func (b *Batch) SetSequential(on bool) { b.seq = on }

// Len returns the number of posted, not-yet-executed verbs.
func (b *Batch) Len() int { return len(b.ops) }

// Reset forgets the posted, not-yet-executed verbs and hands back every slot
// and READ buffer: later posts reuse them.
func (b *Batch) Reset() { b.ops, b.slots, b.data = b.ops[:0], b.slots[:0], b.data[:0] }

func (b *Batch) post(v Pending) *Pending {
	p := &take(&b.slots, 1, 16, 256)[0]
	*p = v // every field: a reused slot keeps no earlier caller's READ buffer
	b.ops = append(b.ops, p)
	return p
}

// take cuts n elements, capped, from *chunk. A chunk without room is
// replaced, by one twice as large up to hi elements, never grown in place:
// what it handed out stays where it is. Reset keeps the latest chunk.
func take[T any](chunk *[]T, n, lo, hi int) []T {
	used := len(*chunk)
	if cap(*chunk)-used < n {
		*chunk, used = make([]T, 0, max(n, min(max(2*cap(*chunk), lo), hi))), 0
	}
	*chunk = (*chunk)[:used+n]
	return (*chunk)[used : used+n : used+n]
}

// PostRead posts a one-sided READ of n bytes at the remote offset, landing in
// a buffer of the batch's unless the caller sets Data before the doorbell.
func (b *Batch) PostRead(qp *QP, off uint64, n int) *Pending {
	return b.post(Pending{verb: verbRead, qp: qp, off: off, n: n})
}

// PostRead64 posts a one-word READ (must not straddle a cacheline).
func (b *Batch) PostRead64(qp *QP, off uint64) *Pending {
	return b.post(Pending{verb: verbRead64, qp: qp, off: off})
}

// PostWrite posts a one-sided WRITE. data must stay unmodified until Execute.
func (b *Batch) PostWrite(qp *QP, off uint64, data []byte) *Pending {
	return b.post(Pending{verb: verbWrite, qp: qp, off: off, data: data})
}

// PostWrite64 posts a one-word WRITE.
func (b *Batch) PostWrite64(qp *QP, off uint64, v uint64) *Pending {
	return b.post(Pending{verb: verbWrite64, qp: qp, off: off, arg: v})
}

// PostCAS posts an RDMA compare-and-swap (IBV_ATOMIC_HCA atomicity).
func (b *Batch) PostCAS(qp *QP, off uint64, old, new uint64) *Pending {
	return b.post(Pending{verb: verbCAS, qp: qp, off: off, old: old, arg: new})
}

// Execute rings the doorbell: every posted verb runs against its target in
// issue order, and the worker's clock advances by max(per-target queueing)
// plus one base latency (the slowest posted verb kind). Per-verb outcomes
// land in the Pending slots; the returned error is the first per-verb error
// (callers that need to know WHICH verbs failed inspect the slots). An empty
// batch charges nothing. The slots stay valid until Reset.
//
// Execute is ExecuteAsync followed by an immediate Wait.
func (b *Batch) Execute() error {
	return b.ExecuteAsync().Wait()
}

// ExecuteAsync rings the doorbell without blocking the worker: every posted
// verb runs against its target in issue order exactly as under Execute —
// memory effects, HTM strong-atomicity aborts, HCA CAS serialization and
// NIC byte/queueing accounting all happen here, at post time — and the
// returned Completion carries the doorbell's virtual completion time
// (max(per-target queueing) + one base latency, or the per-verb sum under
// SetSequential). The worker's clock is settled by Completion.Wait, so a
// coroutine scheduler can run other transactions during the round-trip.
// The slots stay valid until Reset.
func (b *Batch) ExecuteAsync() Completion {
	now := b.clk.Now()
	c := Completion{clk: b.clk, end: now}
	if len(b.ops) == 0 {
		return c
	}
	var base int64 // batched: the slowest posted kind's latency, paid once behind the last byte
	for _, p := range b.ops {
		if !p.qp.remote.alive.Load() {
			p.Err = ErrNodeDead
			if c.err == nil {
				c.err = ErrNodeDead
			}
			continue
		}
		if p.verb == verbRead && cap(p.Data) < p.n {
			p.Data = take(&b.data, p.n, 256, 4096)
		}
		t, vb := now, int64(p.base(p.qp.local.net.cfg.Profile))
		if b.seq {
			t, vb = c.end+vb, 0 // sequential: a cursor pays each verb's latency before its bytes queue
		}
		c.end = max(c.end, p.issue(t))
		base = max(base, vb)
	}
	c.end += base
	if b.rec != nil {
		b.recordDoorbell(len(b.ops), now, c.end)
	}
	b.ops = b.ops[:0]
	return c
}
