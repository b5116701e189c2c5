package txn

import (
	"sync"

	"drtmr/internal/memstore"
	"drtmr/internal/obs"
)

// Contention manager. Pure-OCC retry collapses on hot records: every retry
// re-pays the full execution phase (reads, doorbells, backoff) only to
// validate-abort again, and with enough contenders the expected number of
// retries — and the latency tail — grows without bound. The manager breaks
// the storm in two complementary ways:
//
//  1. Ordered acquisition. A per-worker detector (fed by the abort
//     attribution matrix plus a decayed per-key abort counter) marks records
//     that keep killing transactions as hot. A retry against a hot record
//     first queues on a per-machine FIFO gate for that key, so contenders
//     take turns instead of trampling each other; while queued the coroutine
//     is in one gated park (sched.go), it does not spin-backoff. This is
//     the local-queue half of DrTM's lease-lock idea: admission is ordered,
//     but the protocol underneath is unchanged — the gate grants no record
//     access by itself, it only spaces out the optimistic attempts.
//  2. Commutative updates (contention immunity rather than management): see
//     Txn.Add in txn.go. Delta-shaped writes carry the operation instead of
//     the value and are folded over the current record inside the commit
//     critical section, so two increments no longer conflict at all.
//
// Both halves are disabled by ContentionOff, the pure-OCC-retry ablation.

// ContentionMode selects the engine's hot-record strategy.
type ContentionMode uint8

const (
	// ContentionOn (the default) enables the hot-key FIFO gates and the
	// commutative-delta write path.
	ContentionOn ContentionMode = iota
	// ContentionOff is the ablation: pure-OCC retry with randomized backoff,
	// and Txn.Add degrades to the read-modify-write it replaced.
	ContentionOff
)

func (m ContentionMode) String() string {
	switch m {
	case ContentionOn:
		return "on"
	case ContentionOff:
		return "off"
	default:
		return "ContentionMode(?)"
	}
}

// contentionOn reports whether the manager (gates + delta path) is active.
func (e *Engine) contentionOn() bool { return e.ContentionMode == ContentionOn }

// HotKey identifies one record for contention accounting.
type HotKey struct {
	Table memstore.TableID
	Key   uint64
}

// Detector and queue tuning.
const (
	// DefaultContentionHotThreshold is the decayed per-key abort count at
	// which a key is treated as hot.
	DefaultContentionHotThreshold = 3
	// DefaultBackoffMaxExp caps the randomized exponential backoff at
	// 2^exp * Costs.Backoff.
	DefaultBackoffMaxExp = 8
	// hotDecayEvery halves every decayed per-key counter after this many
	// keyed aborts, so a burst from minutes ago cannot keep a key hot.
	hotDecayEvery = 64
	// gateMaxPolls bounds queue admission; past it the waiter gives up with
	// a StageQueue abort and retries ungated. Each failed poll is a
	// scheduling point (for sibling coroutines, other workers and the OS
	// thread), so the holder always gets cycles to finish and release.
	gateMaxPolls = 1 << 14
)

// contentionManager holds this machine's hot-key detector and per-key FIFO
// gates. Both are machine-level: hotness is a property of the record, not of
// any one worker — a key taking three aborts spread across three workers is
// exactly as hot as one taking three from the same worker, and a per-worker
// counter never notices the former (many-worker configurations dilute every
// key below threshold). Gates are local (per-machine) combining points: they
// cut the local retry storm that dominates the tail, and cross-machine
// contenders still serialize through the protocol's own locks.
type contentionManager struct {
	shards [16]cmShard

	// Decayed per-key abort counts and the event counter that triggers the
	// halving (see noteAbortKey). Guarded by hotMu; touched only on keyed
	// aborts, so the lock is off the happy path.
	hotMu     sync.Mutex
	hotCounts map[HotKey]uint32
	hotEvents uint32
}

type cmShard struct {
	mu    sync.Mutex
	gates map[HotKey]*keyGate
}

func newContentionManager() *contentionManager {
	cm := &contentionManager{hotCounts: make(map[HotKey]uint32)}
	for i := range cm.shards {
		cm.shards[i].gates = make(map[HotKey]*keyGate)
	}
	return cm
}

// noteAbort feeds one keyed abort into the decayed counters and reports
// whether the key's count has reached DefaultContentionHotThreshold.
func (cm *contentionManager) noteAbort(hk HotKey) bool {
	cm.hotMu.Lock()
	if cm.hotEvents++; cm.hotEvents >= hotDecayEvery {
		cm.hotEvents = 0
		for k, c := range cm.hotCounts {
			if c >>= 1; c == 0 {
				delete(cm.hotCounts, k)
			} else {
				cm.hotCounts[k] = c
			}
		}
	}
	c := cm.hotCounts[hk] + 1
	cm.hotCounts[hk] = c
	cm.hotMu.Unlock()
	return c >= DefaultContentionHotThreshold
}

func (cm *contentionManager) gateFor(hk HotKey) *keyGate {
	s := &cm.shards[(hk.Key*31+uint64(hk.Table))&15]
	s.mu.Lock()
	g := s.gates[hk]
	if g == nil {
		g = &keyGate{}
		s.gates[hk] = g
	}
	s.mu.Unlock()
	return g
}

// keyGate is a ticket-FIFO admission gate for one hot key. A waiter draws a
// ticket and is admitted when serving reaches it; release advances serving.
// Timed-out tickets are marked abandoned so release skips them — the queue
// never wedges on a waiter that walked away. The gate only answers polls
// (tryEnter), and one rule polls it (Worker.pollGate): the coroutine
// dispatcher on behalf of a parked context, or, on a worker with no
// scheduler, acquireGate itself.
//
// Virtual-time accounting: the gate itself carries NO clock state and a
// failed poll costs nothing. Worker clocks are not mutually synchronized,
// so any scheme comparing stamps (or even measured durations) across
// workers either charges pure clock skew as waiting or — because sibling
// coroutines share one worker clock — feeds its own charges back into the
// next measurement and compounds without bound; and pricing polls (real
// OS-scheduling delay) charges host noise, not model. A parked waiter's
// clock therefore grows exactly the way it does for doorbell parking: by
// the virtual work its sibling coroutines perform on the shared clock
// while it waits. That growth is what Stats.QueueWait records.
type keyGate struct {
	mu        sync.Mutex
	next      uint64
	serving   uint64
	abandoned map[uint64]struct{}
}

func (g *keyGate) enqueue() uint64 {
	g.mu.Lock()
	t := g.next
	g.next++
	g.mu.Unlock()
	return t
}

// tryEnter admits ticket t if it is being served.
func (g *keyGate) tryEnter(t uint64) bool {
	g.mu.Lock()
	ok := g.serving == t
	g.mu.Unlock()
	return ok
}

// advance (mu held) moves serving past the releasing ticket and any
// abandoned successors.
func (g *keyGate) advance() {
	g.serving++
	for {
		if _, dead := g.abandoned[g.serving]; !dead {
			break
		}
		delete(g.abandoned, g.serving)
		g.serving++
	}
}

func (g *keyGate) release() {
	g.mu.Lock()
	g.advance()
	g.mu.Unlock()
}

// abandon withdraws ticket t. If the grant arrived between the last poll and
// now, the ticket is released instead so the queue keeps draining.
func (g *keyGate) abandon(t uint64) {
	g.mu.Lock()
	if g.serving == t {
		g.advance()
	} else {
		if g.abandoned == nil {
			g.abandoned = make(map[uint64]struct{})
		}
		g.abandoned[t] = struct{}{}
	}
	g.mu.Unlock()
}

// acquireGate queues the worker on g until admitted. While queued the worker
// never takes a virtual-time backoff, which is the whole point of queueing
// instead of backing off. The admission rule is pollGate's, whoever polls:
// under the coroutine scheduler the wait is ONE gated park (sched.go), the
// dispatcher polls the ticket on this context's turns and its goroutine
// sleeps until it is admitted or the bounded wait runs out, so sibling
// contexts — the holder may be one of them — keep the worker busy. A worker
// with no scheduler (N=1, the serve executors, a plain Worker.Run) takes
// every turn itself, on a context of its own that never parks: each failed
// poll hands the deterministic gate to other workers and cedes the OS
// thread. Every admission counts in Stats.GateAdmissions; when the waiter's
// own clock also grew since enqueue (sibling work on the shared clock while
// it was parked; see keyGate) that growth is recorded as the queue wait
// (Stats.QueueWaits/QueueWait, plus an EvPhase/StageQueue trace span). A
// worker with no sibling coroutines waits in host time only, so its
// admissions show in the first counter and never in the second. A bounded
// wait that runs out produces a keyed StageQueue abort and the caller
// retries ungated.
func (w *Worker) acquireGate(g *keyGate, hk HotKey) (ok bool, qerr *Error) {
	start := w.Clk.Now()
	t := g.enqueue()
	var admitted bool
	if w.cur != nil {
		admitted = g.tryEnter(t) || w.yieldGated(g, t)
	} else {
		c := coro{gate: g, ticket: t}
		for !w.pollGate(&c) {
		}
		admitted = c.admitted
	}
	if !admitted {
		g.abandon(t)
		return false, &Error{
			Reason: AbortLocked, Stage: StageQueue, Site: uint16(w.E.M.ID),
			Table: hk.Table, Key: hk.Key, HasKey: true,
			Detail: "hot-key queue admission timed out",
			Seen:   uint64(w.Clk.Now() - start), // the wait
		}
	}
	w.Stats.GateAdmissions++
	if wait := w.Clk.Now() - start; wait > 0 {
		w.Stats.QueueWaits++
		w.Stats.QueueWaitNanos += uint64(wait)
		w.Stats.QueueWait.Record(wait)
		if w.Rec != nil {
			w.Rec.Record(obs.EvPhase, StageQueue, uint16(w.E.M.ID), 0, 0, start, w.Clk.Now())
		}
	}
	return true, nil
}

// noteAbortKey feeds one keyed abort into the machine-level per-key counters
// and returns the gate to queue on before the next attempt, or nil when the
// key is not (yet) hot or the manager is off. The detector is two-stage: the
// machine's decayed per-key counter must reach the threshold AND this
// worker's abort-attribution matrix must confirm the abort's reason×stage
// cell is a repeat offender — a one-off abort at a fresh site never queues.
func (w *Worker) noteAbortKey(te *Error) *keyGate {
	hk := HotKey{Table: te.Table, Key: te.Key}
	if w.Stats.KeyAborts == nil {
		w.Stats.KeyAborts = make(map[HotKey]uint64)
	}
	w.Stats.KeyAborts[hk]++
	if !w.E.contentionOn() {
		return nil
	}
	if !w.E.cm.noteAbort(hk) {
		return nil
	}
	if w.Stats.AbortMatrix.StageReasonTotal(uint8(te.Reason), te.Stage) < DefaultContentionHotThreshold {
		return nil
	}
	return w.E.cm.gateFor(hk)
}
