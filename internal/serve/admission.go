package serve

import (
	"sync/atomic"
	"time"

	"drtmr/internal/txn"
)

// AdmissionConfig tunes the server's admission controller.
type AdmissionConfig struct {
	// Disabled turns shedding off entirely: every request queues, however
	// deep the backlog — the tail-collapse ablation (-admission off).
	Disabled bool
	// MaxQueue is the queue-depth watermark: a request arriving with this
	// many admitted-but-unfinished requests already in the system is shed
	// with ServerBusy. 0 derives a default from the worker count.
	MaxQueue int
}

// defaultQueuePerWorker sizes the default watermark: enough backlog to ride
// out bursts (a queue shorter than a few service times per worker sheds
// needlessly), short enough that queueing delay stays bounded near
// saturation instead of collapsing the tail.
const defaultQueuePerWorker = 32

// admission is the server-side overload controller. Two gates, checked at
// arrival on the connection-reader goroutine so a shed costs one frame
// write and never touches a worker:
//
//	busy:     in-system depth >= watermark               -> ServerBusy
//	hopeless: depth/workers * EWMA(service) > deadline   -> ServerBusy
//
// The second gate is deadline-aware shedding: even below the watermark,
// a request whose projected queue wait already exceeds its own deadline is
// rejected fast — the client learns in one round trip instead of burning a
// queue slot to produce a guaranteed Deadline failure later. Requests that
// pass admission but expire before a worker picks them up are failed with
// Deadline at dequeue (counted separately as expired).
type admission struct {
	disabled bool
	maxQueue int64
	workers  int64

	depth   atomic.Int64 // admitted, response not yet written
	svcEWMA atomic.Int64 // smoothed service time, ns (0 until first sample)

	admitted     atomic.Uint64
	shedBusy     atomic.Uint64
	shedHopeless atomic.Uint64
	expired      atomic.Uint64
}

func newAdmission(cfg AdmissionConfig, workers int) *admission {
	a := &admission{disabled: cfg.Disabled, workers: int64(workers)}
	a.maxQueue = int64(cfg.MaxQueue)
	if a.maxQueue <= 0 {
		a.maxQueue = int64(workers * defaultQueuePerWorker)
	}
	return a
}

// admit decides a request's fate at arrival. nil means admitted (the
// in-system depth is already incremented; the caller must eventually call
// finish). A non-nil *txn.Error is the typed shed the caller writes back.
func (a *admission) admit(node int, deadline time.Duration) *txn.Error {
	if a.disabled {
		a.depth.Add(1)
		a.admitted.Add(1)
		return nil
	}
	d := a.depth.Load()
	if d >= a.maxQueue {
		a.shedBusy.Add(1)
		return &txn.Error{
			Reason: txn.AbortServerBusy,
			Stage:  txn.StageAdmission,
			Site:   uint16(node),
			Detail: "queue depth at watermark",
			Seen:   uint64(d),
		}
	}
	if deadline > 0 {
		if ewma := a.svcEWMA.Load(); ewma > 0 {
			projected := time.Duration(d / a.workers * ewma)
			if projected > deadline {
				a.shedHopeless.Add(1)
				return &txn.Error{
					Reason: txn.AbortServerBusy,
					Stage:  txn.StageAdmission,
					Site:   uint16(node),
					Detail: "projected wait exceeds deadline",
					Seen:   uint64(projected),
				}
			}
		}
	}
	a.depth.Add(1)
	a.admitted.Add(1)
	return nil
}

// expire records an admitted request whose deadline passed in the queue.
// The caller still responds (Deadline) and still calls finish.
func (a *admission) expire() { a.expired.Add(1) }

// finish releases an admitted request's queue slot and, when it actually
// executed, folds its service time into the EWMA (alpha = 1/8; a CAS loop
// because workers publish concurrently).
func (a *admission) finish(svc time.Duration) {
	a.depth.Add(-1)
	if svc <= 0 {
		return
	}
	ns := svc.Nanoseconds()
	for {
		old := a.svcEWMA.Load()
		var next int64
		if old == 0 {
			next = ns
		} else {
			next = old + (ns-old)/8
		}
		if a.svcEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}
