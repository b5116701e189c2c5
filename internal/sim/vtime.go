package sim

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual time.
//
// The simulator measures throughput in *virtual* time rather than wall-clock
// time: each simulated worker thread owns a Clock that is advanced by the
// modelled cost of every operation it performs (a local cache access, an HTM
// commit, an RDMA verb, a lock backoff), and shared hardware (a NIC) is a
// Resource — a single-server queue in virtual time. Throughput is committed
// transactions divided by elapsed virtual time.
//
// This is what makes the reproduction meaningful on an arbitrary host: the
// paper's 6 machines x 16 worker threads are goroutines multiplexed onto
// however many cores this process has, so wall-clock throughput would only
// measure the host, while virtual time measures the modelled cluster.
// Conflicts, aborts, lock waits and protocol interleavings still come from
// real concurrent execution of the protocol code; only *duration* is
// modelled.

// Clock is one worker thread's virtual clock. It is owned by a single
// goroutine; reads from other goroutines (for progress reports) go through
// Now, which is safe because the field is updated atomically.
type Clock struct {
	ns atomic.Int64
}

// Advance moves the clock forward by d.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.ns.Add(int64(d))
	}
}

// AdvanceTo moves the clock forward to t (no-op if already past).
func (c *Clock) AdvanceTo(t int64) {
	for {
		cur := c.ns.Load()
		if cur >= t {
			return
		}
		if c.ns.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.ns.Load() }

// WaitUntil advances the clock to t and reports how far it actually moved:
// the portion of a fabric round-trip that was NOT hidden behind other work
// this worker performed while the round-trip was in flight. This is the
// virtual-time overlap rule for asynchronous verbs: a completion waited on
// by a worker whose clock has already passed t costs nothing (the latency
// was fully overlapped and is charged at most once), while shared-resource
// queueing (Resource.Use) still accumulates per verb, so overlap can hide
// latency but can never compress wire bytes.
func (c *Clock) WaitUntil(t int64) (stalled int64) {
	now := c.ns.Load()
	if t <= now {
		return 0
	}
	c.AdvanceTo(t)
	return t - now
}

// Reset zeroes the clock.
func (c *Clock) Reset() { c.ns.Store(0) }

// Frontier is the set of clocks currently running on one simulated cluster,
// kept so that a runner with nothing to do can tell whether skipping ahead
// would pass somebody who still has that stretch of virtual time to live
// through, and wait for them instead. Clocks are advanced by whichever
// goroutine the host happens to run, so without this a waiter the host
// schedules often can charge itself milliseconds of retries while the holder
// it waits for, descheduled, has not been charged a nanosecond: the two
// clocks stop describing the same timeline. The frontier never holds work
// back, only idling. The zero value is ready to use.
type Frontier struct {
	mu      sync.Mutex                // serializes Join and Leave
	runners atomic.Pointer[[]*Runner] // copy-on-write: Behind reads it lock-free
}

// Runner is one clock's membership in a Frontier. Its methods are for the
// goroutine that advances the clock.
type Runner struct {
	f   *Frontier
	clk *Clock
	// horizon is an instant the runner has said it will not act before
	// (IdleUntil); 0 while it is busy. Its position, for everyone else, is
	// the later of clock and horizon, so two idle runners never wait on each
	// other: the one with the nearer horizon is not passing the other.
	horizon atomic.Int64

	// followers are runners blocked in Follow until this one's position
	// reaches their instant; wakeAt is the least of those instants (Forever
	// with no follower), so Step costs one load while nobody waits.
	mu        sync.Mutex
	followers []follower
	left      bool
	wakeAt    atomic.Int64

	wake  chan struct{} // Follow blocks here; capacity 1; made on first use
	timer *time.Timer   // bounds one Follow
}

type follower struct {
	r  *Runner
	at int64
}

// Forever is the horizon of a runner that will not move until somebody else
// does: all it has left is waiting on other runners.
const Forever = math.MaxInt64

// followPatience bounds one Follow in host time. It is far longer than the
// host ever keeps a runnable goroutine off the CPU, so it expires only when
// the runner followed has stopped outside the simulator (blocked on something
// that is not virtual time): then the follower goes on, and the cost is host
// time, never a hang.
var followPatience = 50 * time.Millisecond

// Join adds c to the frontier. The caller must Leave when c stops running.
func (f *Frontier) Join(c *Clock) *Runner {
	r := &Runner{f: f, clk: c}
	r.wakeAt.Store(Forever)
	f.mu.Lock()
	var cur []*Runner
	if p := f.runners.Load(); p != nil {
		cur = *p
	}
	next := append(cur[:len(cur):len(cur)], r)
	f.runners.Store(&next)
	f.mu.Unlock()
	return r
}

// Leave removes the runner from its frontier and releases its followers.
func (r *Runner) Leave() {
	f := r.f
	f.mu.Lock()
	cur := *f.runners.Load()
	next := make([]*Runner, 0, len(cur))
	for _, x := range cur {
		if x != r {
			next = append(next, x)
		}
	}
	f.runners.Store(&next)
	f.mu.Unlock()
	r.mu.Lock()
	r.left = true
	r.mu.Unlock()
	r.release(Forever)
}

// position is where the runner stands for everyone else.
func (r *Runner) position() int64 { return max(r.clk.Now(), r.horizon.Load()) }

// IdleUntil publishes that the runner has nothing to do before instant t
// (Forever: nothing until another runner acts). It stays published until
// Busy.
func (r *Runner) IdleUntil(t int64) {
	r.horizon.Store(t)
	r.Step()
}

// Busy withdraws the published horizon: the runner is doing work again and
// its clock alone says where it is.
func (r *Runner) Busy() { r.horizon.Store(0) }

// Step is the runner's side of Follow: it wakes the followers whose instant
// its position has reached. The owner calls it wherever it is convenient
// after advancing the clock (the coroutine dispatcher: once per dispatch); a
// late Step only keeps a follower asleep a little longer.
func (r *Runner) Step() {
	if at := r.wakeAt.Load(); at != Forever {
		if p := r.position(); p >= at {
			r.release(p)
		}
	}
}

// release wakes and drops the followers waiting for an instant up to p.
func (r *Runner) release(p int64) {
	r.mu.Lock()
	least, n := int64(Forever), 0
	for _, fl := range r.followers {
		if fl.at <= p {
			//drtmr:allow lockorder never blocks: wake has capacity 1 and a follower is sent one wake-up per registration, which it takes before it registers again
			fl.r.wake <- struct{}{}
			continue
		}
		r.followers[n] = fl
		n++
		least = min(least, fl.at)
	}
	r.followers = r.followers[:n]
	r.wakeAt.Store(least)
	r.mu.Unlock()
}

// Behind returns a runner that moving this one's clock to t would pass — one
// whose position is still before t — or nil when there is none.
func (r *Runner) Behind(t int64) *Runner {
	for _, x := range *r.f.runners.Load() {
		if x != r && x.position() < t {
			return x
		}
	}
	return nil
}

// Follow blocks the calling runner until x's position has reached t or x has
// left, and reports true; or until followPatience of host time has passed,
// and reports false. The caller has published its own horizon first
// (IdleUntil), or two runners could follow each other.
func (r *Runner) Follow(x *Runner, t int64) bool {
	if r.wake == nil { // first wait of this runner
		r.wake = make(chan struct{}, 1)
		//drtmr:allow virtualtime the timer only bounds a host wait (followPatience); no virtual duration is derived from it
		r.timer = time.NewTimer(time.Hour)
		r.timer.Stop()
	}
	x.mu.Lock()
	// Register, then look: x's Step reads wakeAt after moving, so either it
	// sees this follower or this check sees where x moved to.
	x.followers = append(x.followers, follower{r, t})
	x.wakeAt.Store(min(x.wakeAt.Load(), t))
	if x.left || x.position() >= t {
		// wakeAt may stay too low: the next Step corrects it.
		x.followers = x.followers[:len(x.followers)-1]
		x.mu.Unlock()
		return true
	}
	x.mu.Unlock()
	r.timer.Reset(followPatience)
	select {
	case <-r.wake:
		if !r.timer.Stop() {
			select {
			case <-r.timer.C:
			default:
			}
		}
		return true
	case <-r.timer.C:
	}
	x.mu.Lock()
	gone := true
	for i, fl := range x.followers {
		if fl.r == r {
			x.followers = append(x.followers[:i], x.followers[i+1:]...)
			gone = false
			break
		}
	}
	x.mu.Unlock()
	if gone {
		<-r.wake // x released this follower as the timer fired
		return true
	}
	return false
}

// Resource is a shared hardware resource (a NIC's wire) modelled as a
// single-server FIFO queue in virtual time. Use reserves dur of service
// starting no earlier than the caller's current virtual time; when demand
// exceeds capacity the returned completion times run ahead of the callers'
// clocks, which stalls them — in virtual time — exactly like a saturated
// NIC.
//
// The queue is tracked as a BACKLOG (outstanding service time) drained at
// line rate as requester clocks advance, not as an absolute busy-until
// stamp. Worker clocks are not mutually synchronized, so an absolute stamp
// written by a fast-clock requester sits in every slower requester's future
// and Use would charge them the full clock skew as phantom queueing — a
// multi-millisecond latency-tail artifact no real NIC exhibits. With a
// backlog the two formulations are algebraically identical for any single
// monotone clock (backlog == max(0, busyUntil-now)), but queueing is always
// measured in the requester's own clock frame: durations transfer between
// clock domains; stamps do not.
type Resource struct {
	mu      sync.Mutex
	backlog int64 // outstanding service time still queued, in ns
	lastNow int64 // highest requester clock observed (drain frontier)
}

// Use reserves dur of service time for a caller whose clock reads now.
// Returns the virtual completion time; the caller should AdvanceTo it.
func (r *Resource) Use(now int64, dur time.Duration) int64 {
	if dur <= 0 {
		return now
	}
	r.mu.Lock()
	if now > r.lastNow {
		// The server worked off backlog at line rate while the frontier
		// advanced from lastNow to now.
		if drained := now - r.lastNow; drained < r.backlog {
			r.backlog -= drained
		} else {
			r.backlog = 0
		}
		r.lastNow = now
	}
	end := now + r.backlog + int64(dur)
	r.backlog += int64(dur)
	r.mu.Unlock()
	return end
}
