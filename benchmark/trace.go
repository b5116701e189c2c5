package main

import (
	"sort"

	"drtmr/internal/bench/harness"
	"drtmr/internal/htm"
	"drtmr/internal/obs"
	"drtmr/internal/txn"
)

// span is a closed virtual-time interval.
type span struct{ start, end int64 }

func (s span) len() int64           { return s.end - s.start }
func (s span) contains(o span) bool { return s.start <= o.start && o.end <= s.end }
func eventSpan(e obs.Event) span    { return span{e.Start, e.End} }

// attempt is one transaction attempt (one txn id) reassembled from a worker's
// events.
type attempt struct {
	span      span
	ended     bool // its commit or abort event was seen
	committed bool
	children  int64 // virtual ns covered by its phase, HTM and yield spans
	phases    []span
	slot      int // coroutine slot, -1 until a phase reveals it
}

// traceSums are the totals of one traced run, over all workers.
type traceSums struct {
	events, commits uint64

	attemptNs, abortedNs int64 // Σ attempt spans; Σ spans of aborted attempts
	execNs               int64 // Σ committed-attempt self time
	queueNs              int64 // Σ hot-key queue-wait spans (no txn id)
	yieldNs              int64 // Σ yield spans

	htmRegions, htmAborts, htmConflict, htmSpurious uint64
	htmNs                                           int64

	doorbells, doorbellVerbs, doorbellMulti uint64
	doorbellNs                              int64
}

// addWorker folds one worker's events into the sums.
//
// Self time follows the span tree the engine records: an attempt
// (EvTxnCommit/EvTxnAbort, begin→end) has as children the phase and HTM
// spans carrying its txn id, plus the yields it took during execution
// (remote reads). Yield events carry no txn id, only the coroutine slot; a
// phase's own yield is the event recorded immediately before the phase
// (await resumes, then execBatch records), which both accounts for that
// yield inside the phase and tells which slot the attempt ran on, so the
// slot's remaining yields inside the attempt's span are its execution-phase
// waits. Doorbell spans overlap the yields that wait for them and are summed
// on their own, not subtracted.
func (t *traceSums) addWorker(evs []obs.Event) {
	t.events += uint64(len(evs))
	attempts := make(map[uint64]*attempt)
	get := func(id uint64) *attempt {
		a := attempts[id]
		if a == nil {
			a = &attempt{slot: -1}
			attempts[id] = a
		}
		return a
	}
	// Yields per coroutine slot. A slot runs one attempt at a time, so each
	// list is in time order.
	yields := make(map[int][]span)
	for i, e := range evs {
		s := eventSpan(e)
		switch e.Kind {
		case obs.EvTxnCommit, obs.EvTxnAbort:
			a := get(e.ID)
			a.span, a.ended, a.committed = s, true, e.Kind == obs.EvTxnCommit
		case obs.EvPhase:
			if e.Detail == txn.StageQueue {
				t.queueNs += s.len()
				continue
			}
			a := get(e.ID)
			a.children += s.len()
			a.phases = append(a.phases, s)
			if i > 0 && evs[i-1].Kind == obs.EvYield && s.contains(eventSpan(evs[i-1])) {
				a.slot = int(evs[i-1].Arg)
			}
		case obs.EvHTM:
			get(e.ID).children += s.len()
			t.htmRegions++
			t.htmNs += s.len()
			switch htm.AbortCause(e.Detail) {
			case 0:
			case htm.CauseConflict:
				t.htmAborts++
				t.htmConflict++
			case htm.CauseSpurious:
				t.htmAborts++
				t.htmSpurious++
			default:
				t.htmAborts++
			}
		case obs.EvDoorbell:
			t.doorbells++
			t.doorbellVerbs += uint64(e.Arg)
			t.doorbellNs += s.len()
			if e.Site == obs.SiteMulti {
				t.doorbellMulti++
			}
		case obs.EvYield:
			t.yieldNs += s.len()
			yields[int(e.Arg)] = append(yields[int(e.Arg)], s)
		}
	}

	for _, a := range attempts {
		if !a.ended {
			continue // still open when the run ended
		}
		t.attemptNs += a.span.len()
		if !a.committed {
			t.abortedNs += a.span.len()
			continue
		}
		t.commits++
		// Execution-phase yields: the slot's yields inside this attempt
		// that no phase accounts for.
		ys := yields[a.slot]
		first := sort.Search(len(ys), func(i int) bool { return ys[i].start >= a.span.start })
		for _, y := range ys[first:] {
			if y.end > a.span.end {
				break
			}
			inPhase := false
			for _, p := range a.phases {
				inPhase = inPhase || p.contains(y)
			}
			if !inPhase {
				a.children += y.len()
			}
		}
		t.execNs += a.span.len() - a.children
	}
}

// traceMetrics aggregates a traced run's events into the self-time rows.
func (o *outcome) traceMetrics(ms *metricSet, r harness.Result) {
	var t traceSums
	for _, rec := range r.Trace {
		if d := rec.Dropped(); d != 0 {
			o.failf("trace ring of node %d worker %d dropped %d events; raise the workload's traceEvents", rec.Pid, rec.Tid, d)
		}
		t.addWorker(rec.Events())
	}
	if t.commits != r.Committed {
		o.failf("trace holds %d commits, the run committed %d", t.commits, r.Committed)
	}
	per := func(v int64) float64 { return float64(v) / float64(t.commits) }
	ms.set("trace.events", float64(t.events)/float64(t.commits))
	ms.set("txn.exec_virt_ns", per(t.execNs))
	ms.set("txn.aborted_virt_ns", per(t.abortedNs))
	ms.set("txn.yield_virt_ns", per(t.yieldNs))
	ms.set("htm.regions", float64(t.htmRegions)/float64(t.commits))
	ms.set("htm.region_virt_ns", per(t.htmNs))
	ms.set("htm.abort_rate", share(float64(t.htmAborts), float64(t.htmRegions)))
	ms.set("htm.abort_conflict_share", share(float64(t.htmConflict), float64(t.htmAborts)))
	ms.set("htm.abort_spurious_share", share(float64(t.htmSpurious), float64(t.htmAborts)))
	ms.set("rdma.doorbells", float64(t.doorbells)/float64(t.commits))
	ms.set("rdma.verbs_per_doorbell", share(float64(t.doorbellVerbs), float64(t.doorbells)))
	ms.set("rdma.doorbell_virt_ns", per(t.doorbellNs))
	ms.set("rdma.multi_target_share", share(float64(t.doorbellMulti), float64(t.doorbells)))

	// Closure: the end-to-end latency the harness measured around each
	// workload transaction, against the attempt and queue-wait spans that
	// explain it. What is left is time no span covers (retry backoff, the
	// gap between a multi-part transaction's parts).
	latency := float64(r.Lat.All().Sum())
	ms.set("trace.unattributed_share", share(latency-float64(t.attemptNs+t.queueNs), latency))
}
