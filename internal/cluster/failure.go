package cluster

import (
	"sync"
	"sync/atomic"

	"drtmr/internal/obs"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

// The failure plane's clock.
//
// Heartbeats, failure detection, configuration refresh and kill injection
// run on one virtual clock: the furthest instant a worker has reported
// (Report; the transaction layer reports at every transaction begin and
// backoff). Its events are a tick every HeartbeatEvery/2 and at most one
// scheduled kill (KillAt). The report that crosses the next event claims it
// with a CAS and does that event's work inline: local stores and
// non-blocking sends, never a wait for another goroutine's progress, except
// the kill's wait for detector passes of earlier ticks (awaitDetectors).
//
// A tick writes its instant into the heartbeat word of every machine that is
// not dead, and every second tick (every HeartbeatEvery) wakes each live
// machine's detector. The word stays in NVRAM and detectors READ it over
// their aux QPs, so its NIC load is real. Every live machine is stamped on
// the same clock, so a slow, idle or finished machine cannot go stale; only
// a killed one does. That is why nothing here needs a skew guard or a place
// in sim.Frontier.

// failurePlane is the cluster's failure-plane state.
type failurePlane struct {
	// next is the instant of the next event, sim.Forever while a report is
	// doing an event's work (so every other report takes the fast path).
	next atomic.Int64
	// now is the instant of the last event done, detect that of the last
	// detection tick.
	now, detect atomic.Int64
	// The scheduled kill: written by KillAt before any report, then touched
	// only by the report that holds the claim.
	killAt   int64
	killNode rdma.NodeID

	mu         sync.Mutex
	milestones []Milestone
	rec        *obs.Recorder
}

// Milestone is one failure-plane event: Kind is an obs milestone code
// (obs.MilestoneKilled, MilestoneSuspect, MilestoneConfigCommit,
// MilestoneRecoveryDone), Node the machine it concerns, At its virtual
// instant on the cluster's clock.
type Milestone struct {
	Kind uint8
	Node rdma.NodeID
	At   int64
}

// tick is the heartbeat period, half the detector's.
func (c *Cluster) tick() int64 { return max(int64(c.Spec.HeartbeatEvery/2), 1) }

// Report tells the failure plane that a worker's clock reads now. The report
// that crosses the next event does its work before returning.
func (c *Cluster) Report(now int64) {
	if now >= c.plane.next.Load() {
		c.cross(now)
	}
}

// cross claims and does every event up to now that no other report holds.
func (c *Cluster) cross(now int64) {
	p := &c.plane
	for {
		t := p.next.Load()
		if now < t || !p.next.CompareAndSwap(t, sim.Forever) {
			return
		}
		c.advance(t)
	}
}

// Now is the failure plane's time: the instant of its last event.
func (c *Cluster) Now() int64 { return c.plane.now.Load() }

// NextTick is the instant of the failure plane's next tick.
func (c *Cluster) NextTick() int64 { return (c.Now()/c.tick() + 1) * c.tick() }

// advance does the work of the event at instant t, which cross claimed,
// then publishes the next event. A kill and a tick at the same instant kill
// first, so the victim's last stamp precedes its death.
func (c *Cluster) advance(t int64) {
	p := &c.plane
	p.now.Store(t)
	if t == p.killAt {
		p.killAt = 0
		c.awaitDetectors()
		c.kill(p.killNode, t)
	}
	tick := c.tick()
	if t%tick == 0 {
		for _, m := range c.Machines {
			if !m.Dead() {
				m.Eng.Store64NonTx(HeartbeatOff, uint64(t))
			}
		}
		if t%(2*tick) == 0 {
			p.detect.Store(t)
			for _, m := range c.Machines {
				if !m.Dead() {
					select {
					case m.wake <- struct{}{}:
					default:
					}
				}
			}
		}
	}
	next := (t/tick + 1) * tick
	if p.killAt > t {
		next = min(next, p.killAt)
	}
	p.next.Store(next)
}

// awaitDetectors lets every detector finish its pass of the last detection
// tick before a kill takes effect, so what a detector last read of the
// victim depends on virtual time alone, not on when the host ran it.
func (c *Cluster) awaitDetectors() {
	d := c.plane.detect.Load()
	for _, m := range c.Machines {
		for m.passed.Load() < d && !m.stopped() {
			sim.Spin(0)
		}
	}
}

// KillAt schedules machine id to fail-stop at virtual instant at (> 0): the
// report that crosses it kills the machine. Call it after Start and before
// any report.
func (c *Cluster) KillAt(id rdma.NodeID, at int64) {
	p := &c.plane
	p.killAt, p.killNode = at, id
	p.next.Store(min(p.next.Load(), at))
}

// Kill fail-stops a machine at the failure plane's current instant: its NIC
// goes dark and its threads halt. Memory is preserved (battery-backed NVRAM).
func (c *Cluster) Kill(id rdma.NodeID) { c.kill(id, c.Now()) }

func (c *Cluster) kill(id rdma.NodeID, at int64) {
	m := c.Machines[id]
	m.dead.Store(true)
	c.Net.NIC(id).Kill()
	m.stopOnce.Do(func() { close(m.stop) })
	c.milestone(obs.MilestoneKilled, id, at)
}

// runDetector is the machine's failure detector and configuration watcher.
// It applies every configuration its subscription delivers, and each
// detection tick wakes it for a pass: pick up a configuration the
// subscription dropped, READ every member peer's heartbeat stamp, and
// suspect a peer whose stamp lags the tick by more than the lease. A READ
// that fails (the peer's NIC is dark) leaves the last stamp read in place.
func (m *Machine) runDetector(sub <-chan *Config) {
	defer m.wg.Done()
	c := m.cluster
	lease, every := int64(c.Spec.Lease), 2*c.tick()
	beat := make([]int64, c.Spec.Nodes) // last stamp read, per peer
	for {
		select {
		case <-m.stop:
			return
		case cfg := <-sub:
			m.applyNewConfig(cfg)
			continue
		case <-m.wake:
		}
		d := c.plane.detect.Load()
		if c.Coord.Epoch() > m.cfg.Load().Epoch {
			m.applyNewConfig(c.Coord.Current())
		}
		cfg := m.cfg.Load()
		for p := range beat {
			pid := rdma.NodeID(p)
			if pid == m.ID || !cfg.IsMember(pid) {
				continue
			}
			if s, err := m.auxQPs[p].Read64(HeartbeatOff); err == nil {
				beat[p] = int64(s)
			}
			if d-beat[p] > lease {
				// A pass the host ran late suspects at the tick whose pass
				// first would have: the first detection tick past the lease.
				m.suspect(pid, (beat[p]+lease)/every*every+every)
			}
		}
		m.passed.Store(d)
	}
}

// stopped reports whether the machine's threads have been told to halt.
func (m *Machine) stopped() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// Milestones returns the failure plane's milestones so far, in the order
// they were recorded.
func (c *Cluster) Milestones() []Milestone {
	p := &c.plane
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Milestone(nil), p.milestones...)
}

// SetRecorder records every later milestone on r too, as an obs.EvMilestone
// instant in virtual ns, on the same timeline as the worker spans. The
// cluster serializes its Record calls.
func (c *Cluster) SetRecorder(r *obs.Recorder) {
	c.plane.mu.Lock()
	c.plane.rec = r
	c.plane.mu.Unlock()
}

// milestone records one milestone. A suspect is recorded once per machine,
// however many detectors raise it.
func (c *Cluster) milestone(kind uint8, node rdma.NodeID, at int64) {
	p := &c.plane
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ms := range p.milestones {
		if kind == obs.MilestoneSuspect && ms.Kind == kind && ms.Node == node {
			return
		}
	}
	p.milestones = append(p.milestones, Milestone{Kind: kind, Node: node, At: at})
	if p.rec != nil {
		p.rec.Record(obs.EvMilestone, kind, uint16(node), 0, 0, at, at)
	}
}
