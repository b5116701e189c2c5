package harness

import (
	"sync"

	"drtmr/internal/sim"
)

// stepGate serializes every worker of a run into one seeded, reproducible
// interleaving (Options.Deterministic). Workers call their step function at
// every scheduling point — transaction attempt start, doorbell await, retry
// backoff — park themselves, and the gate's seeded RNG picks which parked
// worker runs next. Exactly one worker executes between scheduling points,
// so all cross-worker races (lock CAS winners, NIC queueing order, HTM
// conflicts) are decided by the gate's RNG stream alone and a run's entire
// Result is a pure function of its Options.
//
// The first release waits until every expected worker has parked once:
// worker goroutines start in arbitrary OS-scheduler order, and releasing
// before all have registered would leak that order into the schedule. After
// that the gate is strictly alternating — the one running worker parks (or
// finishes) before the next is released — so the set of parked workers at
// each draw is schedule-determined, not arrival-determined, and the draw
// indexes it in worker-id order.
//
// Worker ids are 0..expect-1 and a worker has one goroutine inside step at a
// time (txn's coroutine scheduler is strict hand-off, so that holds for its
// dispatcher and contexts too), so one reusable channel per id is enough: a
// scheduling point allocates nothing.
type stepGate struct {
	mu      sync.Mutex
	rng     *sim.Rand
	arrived []bool          // by id: has parked (or finished) at least once
	missing int             // ids still false in arrived
	parked  []bool          // by id: blocked in step, waiting for release
	nParked int             // ids true in parked
	release []chan struct{} // by id; buffer 1: a worker that draws itself sends before it receives
}

// newStepGate is the gate of a run of expect workers, seeded from o.Seed:
// nil unless o.Deterministic.
func newStepGate(o Options, expect int) *stepGate {
	if !o.Deterministic {
		return nil
	}
	g := &stepGate{
		rng:     sim.NewRand((o.Seed ^ 0x9E3779B97F4A7C15) | 1),
		arrived: make([]bool, expect),
		missing: expect,
		parked:  make([]bool, expect),
		release: make([]chan struct{}, expect),
	}
	for i := range g.release {
		g.release[i] = make(chan struct{}, 1)
	}
	return g
}

// stepFn returns worker id's scheduling-point hook (txn.Worker.SetGate).
func (g *stepGate) stepFn(id int) func() {
	return func() { g.step(id) }
}

// step parks worker id and blocks until the gate releases it.
func (g *stepGate) step(id int) {
	g.mu.Lock()
	g.parked[id] = true
	g.nParked++
	next := g.handOn(id)
	g.mu.Unlock()
	g.wake(next)
	<-g.release[id]
}

// finish retires worker id (its run loop returned) and hands the schedule on.
func (g *stepGate) finish(id int) {
	g.mu.Lock()
	next := g.handOn(id)
	g.mu.Unlock()
	g.wake(next)
}

// handOn records that worker id stopped running and draws the parked worker
// to release with the seeded RNG, or -1 while the gate must stay shut.
// Callers hold g.mu.
func (g *stepGate) handOn(id int) (next int) {
	if !g.arrived[id] {
		g.arrived[id] = true
		g.missing--
	}
	if g.missing > 0 || g.nParked == 0 {
		return -1
	}
	// The k-th parked worker in id order.
	k := g.rng.Intn(g.nParked)
	for ; !g.parked[next] || k > 0; next++ {
		if g.parked[next] {
			k--
		}
	}
	g.parked[next] = false
	g.nParked--
	return next
}

func (g *stepGate) wake(next int) {
	if next >= 0 {
		g.release[next] <- struct{}{}
	}
}
