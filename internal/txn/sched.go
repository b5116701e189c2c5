//go:build go1.23

// iter.Pull needs go1.23; ROADMAP 6(d) raises both go directives, deleting this.

package txn

import (
	"iter"
	"time"

	"drtmr/internal/obs"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

// Cooperative coroutine scheduler.
//
// A real DrTM+R-class worker thread does not sit idle for the fabric
// round-trip at every doorbell: it multiplexes several in-flight
// transactions with cheap coroutines (the FaRM-lineage technique; see the
// RDMA concurrency-control framework survey), switching to another
// transaction whenever one posts verbs and resuming it when the completion
// arrives. RunCoroutines models exactly that on one simulated worker:
//
//   - Each of the N logical transaction contexts is a runtime coroutine
//     (iter.Pull): the dispatcher resumes it with next, it hands the worker
//     back with yield, and neither switch goes through the Go scheduler. That
//     is STRICT HANDOFF — exactly one context runs at any instant, and
//     control passes only at explicit park points — so all worker state
//     (clock, stats, QPs, rng) stays single-threaded and the interleaving is
//     cooperative, like userspace coroutines on one core.
//   - Every park states its WAKE CONDITION, and the dispatcher resumes a
//     context only when it can make progress. A park is either
//     TIMED — a virtual instant on this worker's clock: Completion.End() for
//     a doorbell (Worker.await), now+d for a retry backoff (Worker.Backoff)
//     — or GATED — ticket t on a hot-key keyGate (Worker.acquireGate).
//     Lock words held across a park are fine — they are real protocol state,
//     exactly as when two independent worker threads contend. HTM regions
//     must NEVER span a park: speculative hardware state does not survive a
//     context switch, so park asserts htmDepth is zero (see htmBegin/htmEnd).
//   - Dispatch rule (scheduler.next): parked contexts take turns in park
//     order. A timed context whose instant has passed is resumed; one whose
//     instant is still ahead keeps its place and costs nothing. A gated
//     context's turn is a poll the dispatcher performs itself — tryEnter; on
//     failure one more toward gateMaxPolls, a step of the deterministic gate,
//     a host yield, and the context moves to the back — so a waiter costs no
//     context switch until it is admitted. Only when no timed context is
//     due and every gated one has had its poll does the earliest future
//     timed context run, and its WaitUntil is the one place the clock jumps
//     over idle time. The polls come first because worker clocks are not
//     synchronized: the gate holder may be another worker, which needs host
//     time to release before this worker may call itself idle. A context is
//     passed over only by contexts that run, and running a transaction
//     advances the clock, so a future instant is always reached.
//   - The idle jump is conservative (scheduler.idleWait). What a worker
//     skips is usually a backoff, and what the backoff waits for is usually
//     another worker: a lock holder, a committer whose record is not yet
//     committable. Free-running, the host decides how often each worker's
//     goroutines run, so a waiter that jumped freely would retry, double its
//     backoff and jump again many times per step of a holder the host left
//     off the CPU — measured, one worker charged itself 22 ms (256 retries)
//     for a hold of 5 us, and which worker drew that lot differed from run to
//     run. So a worker jumps to instant T only when no other worker running a
//     scheduler on this cluster (sim.Frontier) is still before T - idleSlack;
//     otherwise it publishes T as its horizon, sleeps until that worker has
//     got there (sim.Runner.Follow; the other wakes it from its own
//     dispatcher, take), and takes the pass again. A worker stands, for the
//     others, at the later of its clock and its horizon — Forever when only
//     gated contexts are parked, or while the running context waits for a new
//     configuration — so two idle workers never wait on each other, and the
//     slowest worker never waits at all. A sleeping worker polls no gate: it
//     is ahead of the worker it waits for, so on a common timeline its turn at
//     the gate has not come yet. The sleep is bounded in host time, and one
//     that runs out of patience is the last for that jump: a peer stopped
//     outside the simulator costs host time, never a hang
//     (Stats.IdleGiveUps). Work is never held back, only idling; a worker
//     with no scheduler neither joins nor waits; and under the deterministic
//     gate the rule is off, because there the seeded schedule steps every
//     worker at the same rate and a waiter cannot out-poll its holder.
//   - Virtual-time accounting: a timed park charges only what is left of its
//     wait on resume (sim.Clock.WaitUntil), the part the other contexts'
//     work did not already cover. Overlapped round-trips and backoffs are
//     charged once, while NIC queueing still accumulates per verb — overlap
//     hides latency, never bytes. A gated park charges nothing at all.
//
// When every round-trip in flight has the same latency, park order is
// deadline order and the dispatch is round-robin; when they differ (a CAS
// outlasts a WRITE) a completion that has arrived is served ahead of an
// earlier-posted one that has not, as a completion-queue poll would. N = 1
// bypasses the scheduler entirely and runs fn(0) inline: byte-for-byte the
// one-transaction-per-thread behaviour, kept as the ablation baseline
// (Knobs.CoroutinesPerWorker = 1).

// coro is one logical transaction context multiplexed on a worker.
type coro struct {
	slot  int
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// Wake condition, written by the context as it parks and read by the
	// dispatcher: gate == nil is a timed park on until; otherwise a gated
	// park on ticket, whose outcome the dispatcher leaves in admitted.
	until    int64
	gate     *keyGate
	ticket   uint64
	polls    int
	admitted bool
}

// idleSlack is how far past the slowest running worker an idle jump may land
// (see the header). Clocks a few retries apart describe the same timeline
// well enough, and without slack every doorbell's worth of skew would put a
// worker to sleep. It trades steadiness of the model for parallelism on the
// host, where more workers than cores take turns in 10 ms slices and a tight
// window makes them take turns in much shorter ones: free-running replicated
// SmallBank (benchmark sb-r3) repeats to 1.4 % at 100 us, 1.7 % at 200, 1.8 % at
// 300 and 2.7 % at 1 ms (22 % with no rule), while the read-mostly sb-ro loses
// 12 %, 7 % and 4 % of its host throughput at 100 us, 300 us and 1 ms and TPC-C
// 9 %, 3 % and nothing (EXPERIMENTS.md).
const idleSlack = 200 * time.Microsecond

// scheduler owns a worker's parked contexts while RunCoroutines is active.
type scheduler struct {
	parked   []*coro // in park order; cap n, so parking never reallocates
	inFlight int     // contexts parked mid-transaction (started, not done)

	run  *sim.Runner // this worker's clock among the cluster's running ones
	idle bool        // a horizon is published on run
}

// RunCoroutines multiplexes fn over n cooperative transaction contexts on
// this worker; fn(slot) typically loops issuing transactions via Run. It
// returns when every context's fn has returned; a context's panic comes out
// of it, its siblings left parked. n <= 1 calls fn(0) inline with no
// scheduler — the exact classic behaviour.
func (w *Worker) RunCoroutines(n int, fn func(slot int)) {
	if n <= 1 {
		fn(0)
		return
	}
	if w.cur != nil {
		panic("txn: nested RunCoroutines on one worker")
	}
	s := &scheduler{parked: make([]*coro, 0, n)}
	s.run = w.E.M.Cluster().Frontier.Join(&w.Clk)
	w.sched = s
	defer func() {
		w.cur, w.sched = nil, nil
		s.run.Leave()
	}()
	for i := 0; i < n; i++ {
		// Every context starts parked on instant 0: due, in slot order.
		c := &coro{slot: i}
		c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			fn(c.slot)
		})
		s.parked = append(s.parked, c)
	}
	// Strict handoff: next runs the context until it parks itself again
	// (true) or its fn returns (false).
	for live := n; live > 0; {
		c := s.next(w)
		w.cur = c
		if _, parked := c.next(); parked {
			s.parked = append(s.parked, c)
		} else {
			live--
		}
	}
}

// next removes and returns the parked context to resume (the dispatch rule in
// the file header). It never touches the clock: idle time is charged by the
// resumed context's own WaitUntil.
func (s *scheduler) next(w *Worker) *coro {
	for patient := true; ; {
		now := w.Clk.Now()
		earliest := -1
		// One turn per parked context. A timed context keeps its place (i
		// moves past it); a gated one that stays parked moves to the back, so
		// the next unvisited context slides into position i.
		i := 0
		for turns := len(s.parked); turns > 0; turns-- {
			c := s.parked[i]
			switch {
			case c.gate != nil:
				if !w.pollGate(c) {
					copy(s.parked[i:], s.parked[i+1:])
					s.parked[len(s.parked)-1] = c
					continue
				}
			case c.until > now:
				if earliest < 0 || c.until < s.parked[earliest].until {
					earliest = i // always < i: unmoved by later rotations
				}
				i++
				continue
			}
			return s.take(i)
		}
		if earliest >= 0 {
			if t := s.parked[earliest].until; patient {
				if x := s.passes(w, t); x != nil {
					patient = s.idleWait(w, x, t)
					continue // a second worker may still be behind, a gate may have opened
				}
			}
			return s.take(earliest)
		}
		// Only gated contexts are left and none was admitted: poll again
		// (each failed poll ceded the host, so this is not a hot spin).
		s.idleUntil(sim.Forever)
	}
}

// passes is the test of the conservative idle jump (file header): the running
// worker that jumping this one's clock to t would pass by more than idleSlack,
// or nil.
func (s *scheduler) passes(w *Worker, t int64) *sim.Runner {
	if w.gate != nil {
		return nil
	}
	return s.run.Behind(t - int64(idleSlack))
}

// idleWait publishes t, the instant this worker would jump to, as its horizon
// and sleeps until x is no longer passed by the jump. It reports false when
// the sleep ran out of patience instead.
func (s *scheduler) idleWait(w *Worker, x *sim.Runner, t int64) bool {
	s.idleUntil(t)
	w.Stats.IdleWaits++
	if !s.run.Follow(x, t-int64(idleSlack)) {
		w.Stats.IdleGiveUps++
		return false
	}
	return true
}

// idleUntil publishes a horizon (sim.Runner.IdleUntil); busy withdraws it.
func (s *scheduler) idleUntil(t int64) {
	s.run.IdleUntil(t)
	s.idle = true
}

func (s *scheduler) busy() {
	if s.idle {
		s.run.Busy()
		s.idle = false
	}
}

// take removes parked[i], keeping park order; the worker is busy again.
func (s *scheduler) take(i int) *coro {
	s.busy()
	s.run.Step() // the clock has moved since the last dispatch: wake who waited for that
	c := s.parked[i]
	copy(s.parked[i:], s.parked[i+1:])
	s.parked = s.parked[:len(s.parked)-1]
	return c
}

// pollGate is a gated context's turn: it reports whether c must be resumed,
// either admitted (c.admitted) or because its bounded wait ran out. A failed
// poll costs no virtual time (see keyGate); it cedes, so the holder — a
// sibling that gets its own turn in this pass, or another worker — can run
// to release. It is the one admission rule: a worker with no scheduler takes
// every turn of a context of its own in acquireGate.
func (w *Worker) pollGate(c *coro) bool {
	if c.gate.tryEnter(c.ticket) {
		c.admitted = true
		return true
	}
	if c.polls >= gateMaxPolls || w.E.M.Dead() {
		return true
	}
	c.polls++
	w.Cede()
	return false
}

// Cede is a scheduling point for everything outside this worker: in
// deterministic mode it hands the schedule to another worker, and it yields
// the OS thread so contenders interleave on an oversubscribed host. A wait on
// another worker polls through it.
func (w *Worker) Cede() {
	if w.gate != nil {
		w.gate()
	}
	sim.Spin(0)
}

// yield is a timed park: the running context hands the worker to the
// dispatcher and is resumed once the worker clock has reached until, or
// earlier if nothing else on the worker can run — the caller settles the
// difference with Clk.WaitUntil(until). yield(Clk.Now()) is a plain
// round-robin yield. A no-op without a scheduler.
func (w *Worker) yield(until int64) {
	if c := w.cur; c != nil {
		c.until = until
		w.park(c)
	}
}

// yieldGated parks the running context until ticket t is admitted on g or
// the bounded wait runs out, and reports which. The dispatcher does the
// polling (Worker.pollGate); this context stays parked through it.
func (w *Worker) yieldGated(g *keyGate, t uint64) (admitted bool) {
	c := w.cur
	c.gate, c.ticket, c.polls, c.admitted = g, t, 0, false
	w.park(c)
	c.gate = nil
	return c.admitted
}

// park hands the worker from the running context c, whose wake condition is
// set, to the dispatcher and blocks until c is resumed. Parking inside an
// HTM region is a protocol bug — speculative state cannot survive a context
// switch — so the scheduler asserts against it.
func (w *Worker) park(c *coro) {
	if w.htmDepth > 0 {
		panic("txn: coroutine yielded inside an HTM region")
	}
	s := w.sched
	s.inFlight++
	if uint64(s.inFlight) > w.Stats.MaxInFlight {
		w.Stats.MaxInFlight = uint64(s.inFlight)
	}
	var parked int64
	if w.Rec != nil {
		parked = w.Clk.Now()
	}
	c.yield(struct{}{})
	s.inFlight--
	if w.Rec != nil {
		// The span park→resume covers the virtual time other in-flight
		// transactions consumed on this worker's (shared) clock while this
		// context was parked; Arg carries the coroutine slot.
		w.Rec.Record(obs.EvYield, 0, 0, uint32(c.slot), 0, parked, w.Clk.Now())
	}
}

// await settles an asynchronous doorbell: under the scheduler it yields so
// other in-flight transactions run during the fabric round-trip, then
// charges only the uncovered remainder; without a scheduler it degenerates
// to Completion.Wait — the exact synchronous accounting.
func (w *Worker) await(c rdma.Completion) error {
	if w.gate != nil {
		w.gate() // deterministic mode: doorbells are worker-switch points too
	}
	if w.cur == nil {
		return c.Wait()
	}
	issued := w.Clk.Now()
	w.yield(c.End())
	stalled := w.Clk.WaitUntil(c.End())
	w.Stats.CoYields++
	if flight := c.End() - issued; flight > 0 {
		w.Stats.StallNanos += uint64(stalled)
		if hidden := flight - stalled; hidden > 0 {
			w.Stats.OverlapNanos += uint64(hidden)
		}
	}
	return c.Err()
}

// htmBegin/htmEnd bracket a commit-protocol HTM region on this worker so
// the coroutine scheduler can assert that no region ever spans a yield
// point.
func (w *Worker) htmBegin() { w.htmDepth++ }

func (w *Worker) htmEnd() { w.htmDepth-- }
