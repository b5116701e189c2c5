// Package rdma simulates the one-sided RDMA verb layer of a ConnectX-3
// InfiniBand fabric at the fidelity DrTM+R requires:
//
//   - One-sided READ / WRITE with per-cacheline (not per-message) atomicity
//     against the target CPU — a multi-line WRITE lands line by line, which
//     is exactly the torn-read hazard §4.3 defends against.
//   - The atomic verb (CAS) with IBV_ATOMIC_HCA-level atomicity: it
//     serializes against other RDMA atomics at the target NIC but NOT
//     against the target CPU's own atomic instructions (§4.4 C.1, §6.2).
//   - Cache coherence with the target's HTM: every verb routes through the
//     target machine's htm.Engine as a non-transactional access and
//     therefore unconditionally aborts conflicting hardware transactions
//     (strong consistency, §2.1).
//   - Two-sided SEND/RECV messaging, used by DrTM+R only for inserts and
//     deletes (§4.3) and by the Calvin baseline for everything.
//   - A latency profile plus a per-NIC virtual-time bandwidth queue that
//     model verb cost and the 56Gbps NIC saturation the replication
//     experiments hinge on (Figs 11, 15, 16). All durations are charged to
//     the issuing worker's virtual clock (see internal/sim vtime), not to
//     wall-clock time.
//   - Doorbell batching (see batch.go): a Batch collects posted verbs to one
//     or more QPs and Execute charges max(per-target queueing) + one base
//     latency instead of the per-verb sum — wire bytes and HTM routing are
//     unchanged, only the overlap of round-trips is modelled.
//   - Asynchronous completions: ReadAsync / Batch.ExecuteAsync still execute
//     every verb against the target at post time (memory effects, HTM aborts
//     and NIC queueing are those of the synchronous verbs because they are
//     the same function, Pending.issue) but defer the requester's latency
//     charge to a Completion, so a coroutine scheduler can overlap
//     round-trips of independent in-flight transactions; Completion.Wait
//     charges each round-trip at most once.
//
// Failure injection: a NIC can be killed (fail-stop). Verbs against a dead
// NIC return ErrNodeDead after a timeout; the machine's memory is preserved,
// matching the paper's battery-backed NVRAM failure model.
package rdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/obs"
	"drtmr/internal/sim"
)

// NodeID identifies a machine in the cluster.
type NodeID uint32

// GAddr is a global address in the partitioned global address space: a
// (machine, offset) pair.
type GAddr struct {
	Node NodeID
	Off  uint64
}

func (a GAddr) String() string { return fmt.Sprintf("%d:%#x", a.Node, a.Off) }

// ErrNodeDead is returned for verbs against a failed machine.
var ErrNodeDead = errors.New("rdma: target node is dead")

// ErrRecvTimeout is returned by Recv when no message arrives in time.
var ErrRecvTimeout = errors.New("rdma: recv timeout")

// LatencyProfile is the modelled cost of each verb, charged to the issuing
// worker's virtual clock. The defaults are ConnectX-3-class numbers: an RDMA
// verb costs ~10-20x a local cache access, an atomic verb is the most
// expensive one-sided op (the paper measures RDMA CAS at two orders of
// magnitude over a local CAS, §6.2), and two-sided messaging costs more than
// one-sided verbs (the reason DrTM+R avoids messages in the commit path,
// §4.4).
type LatencyProfile struct {
	Read  time.Duration // one-sided READ base latency
	Write time.Duration // one-sided WRITE base latency
	CAS   time.Duration // atomic verb latency
	Send  time.Duration // two-sided message latency (verbs path)
}

// DefaultProfile is the RDMA-capable InfiniBand (ConnectX-3 class) profile.
func DefaultProfile() LatencyProfile {
	return LatencyProfile{
		Read:  1500 * time.Nanosecond,
		Write: 1000 * time.Nanosecond,
		CAS:   2000 * time.Nanosecond,
		Send:  5000 * time.Nanosecond,
	}
}

// Config configures the simulated fabric.
type Config struct {
	Profile LatencyProfile
	// NICBytesPerSec caps each NIC's aggregate bandwidth in virtual time
	// (0 = unlimited). 56Gbps full duplex is ~7e9 per direction; the
	// simulated NIC uses a single queue for both directions, matching the
	// paper's observation that one ConnectX-3 is the bottleneck.
	NICBytesPerSec int64
	// RecvQueueDepth is the per-NIC SEND/RECV queue depth.
	RecvQueueDepth int
}

// NICBandwidth56G is the default NIC capacity (bytes/second of virtual time).
const NICBandwidth56G = int64(7e9)

// Message is one two-sided SEND payload.
type Message struct {
	From    NodeID
	Payload []byte
}

// Network is the fabric connecting all NICs.
type Network struct {
	cfg  Config
	nics []*NIC
}

// NewNetwork creates a fabric for n machines. Memory is attached per node
// with Attach.
func NewNetwork(n int, cfg Config) *Network {
	if cfg.RecvQueueDepth <= 0 {
		cfg.RecvQueueDepth = 4096
	}
	if cfg.Profile == (LatencyProfile{}) {
		cfg.Profile = DefaultProfile()
	}
	net := &Network{cfg: cfg, nics: make([]*NIC, n)}
	for i := range net.nics {
		nic := &NIC{
			net:   net,
			node:  NodeID(i),
			inbox: make(chan Message, cfg.RecvQueueDepth),
		}
		nic.alive.Store(true)
		net.nics[i] = nic
	}
	return net
}

// Attach registers node's memory (its htm engine) with its NIC, making the
// region remotely accessible.
func (n *Network) Attach(node NodeID, eng *htm.Engine) {
	n.nics[node].eng = eng
}

// NIC returns the NIC of node.
func (n *Network) NIC(node NodeID) *NIC { return n.nics[node] }

// Nodes returns the number of machines on the fabric.
func (n *Network) Nodes() int { return len(n.nics) }

// Profile returns the active latency profile.
func (n *Network) Profile() LatencyProfile { return n.cfg.Profile }

// NIC is one machine's (simulated) RDMA-capable network card.
type NIC struct {
	net   *Network
	node  NodeID
	eng   *htm.Engine
	wire  sim.Resource // virtual-time bandwidth queue
	alive atomic.Bool

	// atomicsMu serializes RDMA atomic verbs targeting this NIC: the
	// IBV_ATOMIC_HCA atomicity level. Local CPU atomics do not take this
	// mutex — mixing them with RDMA atomics on the same word is unsafe,
	// exactly as on the paper's hardware.
	atomicsMu sync.Mutex

	inbox chan Message

	stats NICStats
}

// NICStats counts verb traffic for the experiment reports.
type NICStats struct {
	Reads, Writes, Atomics, Sends atomic.Uint64
	BytesOut, BytesIn             atomic.Uint64
}

// StatsSnapshot is a plain copy of the NIC counters.
type StatsSnapshot struct {
	Reads, Writes, Atomics, Sends uint64
	BytesOut, BytesIn             uint64
}

// Snapshot copies the counters.
func (nic *NIC) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Reads:    nic.stats.Reads.Load(),
		Writes:   nic.stats.Writes.Load(),
		Atomics:  nic.stats.Atomics.Load(),
		Sends:    nic.stats.Sends.Load(),
		BytesOut: nic.stats.BytesOut.Load(),
		BytesIn:  nic.stats.BytesIn.Load(),
	}
}

// Node returns the NIC's machine ID.
func (nic *NIC) Node() NodeID { return nic.node }

// Alive reports whether the machine is serving.
func (nic *NIC) Alive() bool { return nic.alive.Load() }

// Kill fail-stops the machine: all verbs against it start failing. Memory
// is preserved (battery-backed NVRAM).
func (nic *NIC) Kill() { nic.alive.Store(false) }

// Revive brings a killed machine back (used to model a replacement instance
// taking over the NIC of a surviving machine).
func (nic *NIC) Revive() { nic.alive.Store(true) }

// book queues one message of payload bytes (plus 64 B of headers) on both
// endpoints' wires from virtual instant t, counts it on both NICs and returns
// the instant its last byte has left; a loop-back message (src == dst)
// crosses its one NIC once. Saturation shows up as the returned instants
// running ahead of the requesters' clocks. The bytes are booked when the
// message is posted even if the requester defers its own clock advance to a
// Completion: overlap hides latency, never wire bytes.
func book(src, dst *NIC, t int64, payload int) int64 {
	wire := int64(payload) + 64
	src.stats.BytesOut.Add(uint64(wire))
	dst.stats.BytesIn.Add(uint64(wire))
	bw := src.net.cfg.NICBytesPerSec
	if bw <= 0 {
		return t
	}
	ser := time.Duration(wire * int64(time.Second) / bw)
	end := src.wire.Use(t, ser)
	if dst != src {
		end = max(end, dst.wire.Use(t, ser))
	}
	return end
}

// Completion is the requester-side handle of asynchronously issued verbs —
// a single verb (ReadAsync) or a whole doorbell batch (Batch.ExecuteAsync).
// The verbs themselves have already executed against the target at post
// time: memory effects, HTM strong-atomicity aborts and NIC byte/queueing
// accounting are all done. Only the requester's latency charge is deferred;
// Wait settles it.
type Completion struct {
	clk *sim.Clock
	end int64
	err error
}

// End returns the virtual completion time of the slowest verb in the
// completion.
func (c *Completion) End() int64 { return c.end }

// Err returns the first per-verb error without settling the latency charge.
func (c *Completion) Err() error { return c.err }

// Wait advances the issuing worker's clock to max(now, completion time) and
// returns the first per-verb error. A worker that ran other coroutines'
// transactions while the verbs were in flight pays only the portion of the
// round-trip not already covered — overlapped round-trips are charged once.
// Wait is idempotent; waiting on a nil Completion is a no-op.
func (c *Completion) Wait() error {
	if c == nil {
		return nil
	}
	c.clk.WaitUntil(c.end)
	return c.err
}

// QP is a queue pair: the issuing endpoint for verbs from one node to
// another (possibly itself: loopback QPs are how DrTM+R's fallback handler
// locks local records, §6.2).
type QP struct {
	local  *NIC
	remote *NIC
	clk    *sim.Clock
	rec    *obs.Recorder // nil = tracing off (the fast path)
}

// SetRecorder attaches a trace recorder: every verb issued on the QP itself,
// synchronous or ReadAsync, emits a one-verb doorbell event (post →
// completion, virtual time). nil detaches.
func (qp *QP) SetRecorder(r *obs.Recorder) { qp.rec = r }

// NewQP opens a queue pair from src to dst, charging verb costs to clk
// (each simulated worker thread owns its QPs, as on real RDMA hardware).
func (n *Network) NewQP(src, dst NodeID, clk *sim.Clock) *QP {
	return &QP{local: n.nics[src], remote: n.nics[dst], clk: clk}
}

// Remote returns the target node of this QP.
func (qp *QP) Remote() NodeID { return qp.remote.node }

// ring runs p as a sequential doorbell of one and returns its completion:
// all of a synchronous verb but the wait. It owns what the single-verb paths
// share — the liveness check (a dead target charges nothing), the clock the
// verb is priced on and the doorbell trace event — and leaves the verb to
// Pending.issue, so no method below can drift from what a SetSequential
// batch does for the same verb (TestBatchSequentialMatchesSyncVerbs).
func (qp *QP) ring(p *Pending) Completion {
	now := qp.clk.Now()
	if !qp.remote.alive.Load() {
		p.Data = nil // a refused READ hands back no bytes, not the caller's stale buffer
		return Completion{clk: qp.clk, end: now, err: ErrNodeDead}
	}
	end := p.issue(now + int64(p.base(qp.local.net.cfg.Profile)))
	if qp.rec != nil {
		qp.rec.Record(obs.EvDoorbell, 0, uint16(qp.remote.node), 1, 0, now, end)
	}
	return Completion{clk: qp.clk, end: end}
}

// Read performs a one-sided RDMA READ of n bytes at the remote offset,
// atomic per cacheline. buf is reused if large enough.
func (qp *QP) Read(off uint64, n int, buf []byte) ([]byte, error) {
	p := Pending{verb: verbRead, qp: qp, off: off, n: n, Data: buf}
	c := qp.ring(&p)
	return p.Data, c.Wait()
}

// ReadAsync issues the same one-sided READ as Read without blocking the
// worker: the read executes against the target immediately (in issue order,
// with the same per-cacheline atomicity and strong-atomicity HTM aborts),
// and the returned Completion carries the virtual completion time — call
// Wait to settle the latency charge. ReadAsync followed by an immediate
// Wait IS Read. On a dead target the data is nil, nothing is charged and the
// Completion reports ErrNodeDead.
func (qp *QP) ReadAsync(off uint64, n int, buf []byte) ([]byte, *Completion) {
	p := Pending{verb: verbRead, qp: qp, off: off, n: n, Data: buf}
	c := qp.ring(&p)
	return p.Data, &c
}

// Write performs a one-sided RDMA WRITE, atomic per cacheline: a write
// spanning multiple lines lands line by line (§4.3, Fig 4).
func (qp *QP) Write(off uint64, data []byte) error {
	p := Pending{verb: verbWrite, qp: qp, off: off, data: data}
	c := qp.ring(&p)
	return c.Wait()
}

// Read64 reads one 8-byte word (must not straddle a cacheline).
func (qp *QP) Read64(off uint64) (uint64, error) {
	p := Pending{verb: verbRead64, qp: qp, off: off}
	c := qp.ring(&p)
	return p.Val, c.Wait()
}

// Write64 writes one 8-byte word.
func (qp *QP) Write64(off uint64, v uint64) error {
	p := Pending{verb: verbWrite64, qp: qp, off: off, arg: v}
	c := qp.ring(&p)
	return c.Wait()
}

// CAS performs an RDMA compare-and-swap with IBV_ATOMIC_HCA atomicity: it
// holds the target NIC's atomic lock, so it is atomic against other RDMA
// atomics but not against local CPU atomics.
func (qp *QP) CAS(off uint64, old, new uint64) (prev uint64, swapped bool, err error) {
	p := Pending{verb: verbCAS, qp: qp, off: off, old: old, arg: new}
	c := qp.ring(&p)
	return p.Prev, p.Swapped, c.Wait()
}

// Send delivers a two-sided message into the remote NIC's receive queue.
func (qp *QP) Send(payload []byte) error {
	if !qp.remote.alive.Load() {
		return ErrNodeDead
	}
	qp.clk.AdvanceTo(book(qp.local, qp.remote, qp.clk.Now()+int64(qp.local.net.cfg.Profile.Send), len(payload)))
	qp.remote.stats.Sends.Add(1)
	msg := Message{From: qp.local.node, Payload: append([]byte(nil), payload...)}
	select {
	case qp.remote.inbox <- msg:
		return nil
	//drtmr:allow virtualtime queue-full timeout is a backstop against harness deadlock, not protocol time
	case <-time.After(time.Second):
		return fmt.Errorf("rdma: send to node %d: recv queue full", qp.remote.node)
	}
}

// Recv blocks for up to timeout waiting for a message on this node's
// receive queue. A dead node's Recv fails immediately (its poller threads
// are gone).
func (nic *NIC) Recv(timeout time.Duration) (Message, error) {
	if !nic.alive.Load() {
		return Message{}, ErrNodeDead
	}
	select {
	case m := <-nic.inbox:
		return m, nil
	//drtmr:allow virtualtime recv timeout is a backstop against harness deadlock, not protocol time
	case <-time.After(timeout):
		return Message{}, ErrRecvTimeout
	}
}

// TryRecv polls the receive queue without blocking.
func (nic *NIC) TryRecv() (Message, bool) {
	select {
	case m := <-nic.inbox:
		return m, true
	default:
		return Message{}, false
	}
}
