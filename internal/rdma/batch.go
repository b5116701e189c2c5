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
// after Execute returns: Data for PostRead, Val for PostRead64, Prev/Swapped
// for PostCAS. Err is ErrNodeDead if the target died before execution.
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

// wireBytes is the verb's payload size on the wire (headers added by charge).
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

// perform routes the verb through the target machine's HTM engine, exactly
// like the synchronous QP verb of the same kind: non-transactional access
// (aborts conflicting HTM transactions), per-cacheline atomicity, and the
// target NIC's atomic lock for CAS.
func (p *Pending) perform() {
	nic := p.qp.remote
	switch p.verb {
	case verbRead:
		nic.stats.Reads.Add(1)
		p.Data = nic.eng.ReadNonTx(p.off, p.n, p.Data)
	case verbRead64:
		nic.stats.Reads.Add(1)
		p.Val = nic.eng.Load64NonTx(p.off)
	case verbWrite:
		nic.stats.Writes.Add(1)
		nic.eng.WriteNonTx(p.off, p.data)
	case verbWrite64:
		nic.stats.Writes.Add(1)
		nic.eng.Store64NonTx(p.off, p.arg)
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
// lock word (internal/txn lockBatch, finish). Nothing is promised between
// different QPs of one batch. TestBatchPerQPOrder holds the contract.
type Batch struct {
	clk *sim.Clock
	ops []*Pending
	seq bool
	rec *obs.Recorder // nil = tracing off (the fast path)
}

// SetRecorder attaches a trace recorder: each executed doorbell emits one
// event spanning post → completion (virtual time) with its verb count and
// target node. nil detaches.
func (b *Batch) SetRecorder(r *obs.Recorder) { b.rec = r }

// recordDoorbell emits the doorbell trace event for the n verbs just
// executed; must run before Reset. Site is the single target node, or
// obs.SiteMulti when the batch fanned out to several.
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

// Reset forgets all posted verbs so the batch can be reused. Pending slots
// handed out earlier remain valid.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

func (b *Batch) post(p *Pending) *Pending {
	b.ops = append(b.ops, p)
	return p
}

// PostRead posts a one-sided READ of n bytes at the remote offset.
func (b *Batch) PostRead(qp *QP, off uint64, n int) *Pending {
	return b.post(&Pending{verb: verbRead, qp: qp, off: off, n: n})
}

// PostRead64 posts a one-word READ (must not straddle a cacheline).
func (b *Batch) PostRead64(qp *QP, off uint64) *Pending {
	return b.post(&Pending{verb: verbRead64, qp: qp, off: off})
}

// PostWrite posts a one-sided WRITE. data must stay unmodified until Execute.
func (b *Batch) PostWrite(qp *QP, off uint64, data []byte) *Pending {
	return b.post(&Pending{verb: verbWrite, qp: qp, off: off, data: data})
}

// PostWrite64 posts a one-word WRITE.
func (b *Batch) PostWrite64(qp *QP, off uint64, v uint64) *Pending {
	return b.post(&Pending{verb: verbWrite64, qp: qp, off: off, arg: v})
}

// PostCAS posts an RDMA compare-and-swap (IBV_ATOMIC_HCA atomicity).
func (b *Batch) PostCAS(qp *QP, off uint64, old, new uint64) *Pending {
	return b.post(&Pending{verb: verbCAS, qp: qp, off: off, old: old, arg: new})
}

// Execute rings the doorbell: every posted verb runs against its target in
// issue order, and the worker's clock advances by max(per-target queueing)
// plus one base latency (the slowest posted verb kind). Per-verb outcomes
// land in the Pending slots; the returned error is the first per-verb error
// (callers that need to know WHICH verbs failed inspect the slots). An empty
// batch charges nothing. The batch is reset for reuse.
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
// The batch is reset for reuse.
func (b *Batch) ExecuteAsync() *Completion {
	c := &Completion{clk: b.clk, end: b.clk.Now()}
	if len(b.ops) == 0 {
		return c
	}
	if b.seq {
		return b.executeSequentialAsync(c)
	}
	now := b.clk.Now()
	maxEnd := now
	var base time.Duration
	for _, p := range b.ops {
		if !p.qp.remote.alive.Load() {
			p.Err = ErrNodeDead
			if c.err == nil {
				c.err = ErrNodeDead
			}
			continue
		}
		if vb := p.base(p.qp.local.net.cfg.Profile); vb > base {
			base = vb
		}
		wire := int64(p.wireBytes()) + 64
		if bw := p.qp.local.net.cfg.NICBytesPerSec; bw > 0 {
			ser := time.Duration(wire * int64(time.Second) / bw)
			if end := p.qp.local.wire.Use(now, ser); end > maxEnd {
				maxEnd = end
			}
			if p.qp.remote != p.qp.local {
				if end := p.qp.remote.wire.Use(now, ser); end > maxEnd {
					maxEnd = end
				}
			}
		}
		p.qp.local.stats.BytesOut.Add(uint64(wire))
		p.qp.remote.stats.BytesIn.Add(uint64(wire))
		p.perform()
	}
	c.end = maxEnd + int64(base)
	if b.rec != nil {
		b.recordDoorbell(len(b.ops), now, c.end)
	}
	b.Reset()
	return c
}

// executeSequentialAsync is the ablation path: per-verb full round-trips —
// the exact accounting recurrence of the synchronous QP verbs, computed on
// a cursor instead of the live clock so the charge can still be deferred.
func (b *Batch) executeSequentialAsync(c *Completion) *Completion {
	t := b.clk.Now()
	for _, p := range b.ops {
		if !p.qp.remote.alive.Load() {
			p.Err = ErrNodeDead
			if c.err == nil {
				c.err = ErrNodeDead
			}
			continue
		}
		// Mirror charge() verb by verb: advance the cursor by the base
		// latency, then queue the wire bytes on both endpoints at that
		// instant.
		t += int64(p.base(p.qp.local.net.cfg.Profile))
		wire := int64(p.wireBytes()) + 64
		end := t
		if bw := p.qp.local.net.cfg.NICBytesPerSec; bw > 0 {
			ser := time.Duration(wire * int64(time.Second) / bw)
			if e := p.qp.local.wire.Use(t, ser); e > end {
				end = e
			}
			if p.qp.remote != p.qp.local {
				if e := p.qp.remote.wire.Use(t, ser); e > end {
					end = e
				}
			}
		}
		t = end
		p.qp.local.stats.BytesOut.Add(uint64(wire))
		p.qp.remote.stats.BytesIn.Add(uint64(wire))
		p.perform()
	}
	c.end = t
	if b.rec != nil {
		b.recordDoorbell(len(b.ops), b.clk.Now(), c.end)
	}
	b.Reset()
	return c
}
