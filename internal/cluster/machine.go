package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/oplog"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

// Per-machine NVRAM layout. Line 0 is the null sentinel; the heartbeat word,
// per-ring head/watermark words and the log rings occupy a fixed prefix so
// every machine can compute every peer's infrastructure addresses without
// communication; the record arena takes the rest.
const (
	HeartbeatOff = 1 * sim.CachelineSize
	ringCtlBase  = 2 * sim.CachelineSize // two control lines (head, mark) per source
)

func ringHeadOff(src rdma.NodeID) uint64 {
	return ringCtlBase + uint64(src)*2*sim.CachelineSize
}

func ringMarkOff(src rdma.NodeID) uint64 {
	return ringCtlBase + uint64(src)*2*sim.CachelineSize + sim.CachelineSize
}

// DefaultRingBytes is the size of one log ring. Every machine holds one ring
// per node at the start of its NVRAM, below the record arena.
const DefaultRingBytes = 1 << 20

// Spec sizes a simulated cluster.
type Spec struct {
	Nodes     int
	Replicas  int // copies per shard (1 = no replication, 3 = paper's f+1)
	MemBytes  int // per-machine NVRAM, log rings included
	RingBytes int // each of a machine's Nodes log rings; 0 = DefaultRingBytes
	HTM       htm.Config
	RDMA      rdma.Config
	// Lease is the failure-detection lease on the cluster's virtual clock
	// (failure.go): a machine whose heartbeat stamp lags a detection tick by
	// more than Lease is suspected. 0 = the paper's conservative 10ms.
	Lease time.Duration
	// HeartbeatEvery is the detector period: heartbeats are stamped every
	// HeartbeatEvery/2 of virtual time and detectors run every HeartbeatEvery.
	HeartbeatEvery time.Duration
}

// Machine is one simulated server: engine + store + NIC + log infrastructure
// + configuration cache + auxiliary threads.
type Machine struct {
	ID    rdma.NodeID
	Eng   *htm.Engine
	Store *memstore.Store
	Arena *memstore.Arena

	cluster *Cluster
	cfg     atomic.Pointer[Config]

	// logWriters[dst] appends to the ring this machine owns on machine
	// dst; appliers[src] drains the ring machine src owns here.
	logWriters []*oplog.Writer
	appliers   []*oplog.Applier

	// auxQP[i] is the auxiliary thread's QP to node i (aux work is not
	// charged to any worker's virtual clock).
	auxClk sim.Clock
	auxQPs []*rdma.QP
	// auxWake starts an auxiliary-thread pass (capacity 1, drained before
	// the pass, so a wake-up that finds it full is not lost): a WRITE landed
	// in this machine's ring area, or one of its log writers has a
	// watermark to push.
	auxWake chan struct{}

	handlersMu sync.RWMutex
	handlers   map[uint8]Handler

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	dead     atomic.Bool

	// wake starts a detector pass (capacity 1: a pass reads the latest
	// detection tick, so wake-ups that find it full are not lost); passed is
	// the detection tick of the last pass finished.
	wake   chan struct{}
	passed atomic.Int64

	// commits holds, per worker of this machine, the commit phases it has
	// running (Commits); recovery waits for every machine's to finish.
	commitsMu sync.Mutex
	commits   []*atomic.Int32
}

// Handler processes one RPC request on the hosting machine and returns the
// reply payload. It runs on the caller's goroutine (Call), so one machine's
// handlers run concurrently, once per caller in flight, and must be safe for
// that: memstore's insert and delete are HTM-protected, and oplog's ApplyRec
// builds its record image in a buffer of its own. payload is the caller's
// buffer: read it during the call, do not keep it.
type Handler func(from rdma.NodeID, payload []byte) []byte

// Cluster wires Spec.Nodes machines to one fabric and one coordinator.
type Cluster struct {
	Spec     Spec
	Net      *rdma.Network
	Coord    *Coordinator
	Machines []*Machine

	// Frontier lists the worker clocks running coroutine schedulers on this
	// cluster (txn.Worker.RunCoroutines joins it), so an idle worker does
	// not skip past one that is still working; see sim.Frontier.
	Frontier sim.Frontier

	plane failurePlane
}

// New builds a cluster. Workers are created by the transaction layer; Start
// launches the detector and auxiliary threads.
func New(spec Spec) *Cluster {
	if spec.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	if spec.Replicas <= 0 {
		spec.Replicas = 1
	}
	if spec.MemBytes == 0 {
		spec.MemBytes = 64 << 20
	}
	if spec.RingBytes == 0 {
		spec.RingBytes = DefaultRingBytes
	}
	if spec.Lease == 0 {
		spec.Lease = 10 * time.Millisecond
	}
	if spec.HeartbeatEvery == 0 {
		spec.HeartbeatEvery = 2 * time.Millisecond
	}
	c := &Cluster{
		Spec:  spec,
		Net:   rdma.NewNetwork(spec.Nodes, spec.RDMA),
		Coord: NewCoordinator(NewInitialConfig(spec.Nodes, spec.Replicas)),
	}
	c.plane.next.Store(c.tick())
	ringArea := uint64(spec.Nodes) * uint64(spec.RingBytes)
	arenaStart := uint64(ringCtlBase) + uint64(spec.Nodes)*2*sim.CachelineSize
	arenaStart = (arenaStart + 4095) &^ 4095
	ringBase := arenaStart
	arenaStart += ringArea

	initial := c.Coord.Current()
	for i := 0; i < spec.Nodes; i++ {
		eng := htm.NewEngine(make([]byte, sim.AlignUp(spec.MemBytes)), spec.HTM)
		c.Net.Attach(rdma.NodeID(i), eng)
		arena := memstore.NewArena(eng, arenaStart)
		m := &Machine{
			ID:       rdma.NodeID(i),
			Eng:      eng,
			Store:    memstore.NewStore(eng, arena),
			Arena:    arena,
			cluster:  c,
			handlers: make(map[uint8]Handler),
			stop:     make(chan struct{}),
			wake:     make(chan struct{}, 1),
			auxWake:  make(chan struct{}, 1),
		}
		m.cfg.Store(initial)
		m.RegisterHandler(rpcRedo, m.handleRedo)
		// Ring control words and rings are one range; the record arena
		// starts where it ends.
		c.Net.NIC(m.ID).Watch(ringCtlBase, arenaStart, m.auxWake)
		c.Machines = append(c.Machines, m)
	}
	// Log infrastructure: machine s owns a ring at the same offset inside
	// every peer.
	for _, m := range c.Machines {
		m.auxQPs = make([]*rdma.QP, spec.Nodes)
		m.logWriters = make([]*oplog.Writer, spec.Nodes)
		m.appliers = make([]*oplog.Applier, spec.Nodes)
		for p := 0; p < spec.Nodes; p++ {
			m.auxQPs[p] = c.Net.NewQP(m.ID, rdma.NodeID(p), &m.auxClk)
			geoOnP := oplog.Geometry{
				Base:    ringBase + uint64(m.ID)*uint64(spec.RingBytes),
				Size:    uint64(spec.RingBytes),
				HeadOff: ringHeadOff(m.ID),
				MarkOff: ringMarkOff(m.ID),
			}
			m.logWriters[p] = oplog.NewWriter(geoOnP)
			m.logWriters[p].WakeOn(m.auxWake)
			geoHere := oplog.Geometry{
				Base:    ringBase + uint64(p)*uint64(spec.RingBytes),
				Size:    uint64(spec.RingBytes),
				HeadOff: ringHeadOff(rdma.NodeID(p)),
				MarkOff: ringMarkOff(rdma.NodeID(p)),
			}
			mm := m
			m.appliers[p] = oplog.NewApplier(m.Eng, m.Store, geoHere, func(shard uint16) bool {
				return mm.Replicates(ShardID(shard))
			})
		}
	}
	return c
}

// Config returns this machine's cached configuration.
func (m *Machine) Config() *Config { return m.cfg.Load() }

// Cluster returns the owning cluster.
func (m *Machine) Cluster() *Cluster { return m.cluster }

// LogWriter returns the writer for this machine's ring on dst.
func (m *Machine) LogWriter(dst rdma.NodeID) *oplog.Writer { return m.logWriters[dst] }

// Applier returns the applier draining src's ring on this machine.
func (m *Machine) Applier(src rdma.NodeID) *oplog.Applier { return m.appliers[src] }

// Replicates reports whether this machine currently holds a copy of shard
// (as primary or backup).
func (m *Machine) Replicates(shard ShardID) bool {
	cfg := m.cfg.Load()
	if int(shard) >= cfg.NumShards() {
		return false
	}
	if cfg.PrimaryOf(shard) == m.ID {
		return true
	}
	for _, b := range cfg.BackupsOf(shard) {
		if b == m.ID {
			return true
		}
	}
	return false
}

// Dead reports whether the machine has been killed.
func (m *Machine) Dead() bool { return m.dead.Load() }

// Commits registers a worker of this machine and returns its count of
// commit phases running, which the worker keeps: a commit counts itself
// before it checks the epoch, and recovery reads the two the other way round.
func (m *Machine) Commits() *atomic.Int32 {
	n := new(atomic.Int32)
	m.commitsMu.Lock()
	m.commits = append(m.commits, n)
	m.commitsMu.Unlock()
	return n
}

// RegisterHandler installs the RPC handler for a message kind.
func (m *Machine) RegisterHandler(kind uint8, h Handler) {
	m.handlersMu.Lock()
	m.handlers[kind] = h
	m.handlersMu.Unlock()
}

// rpcHeader is what a request or a reply carries on the wire ahead of its
// payload: kind u8, request id u64, origin u32. An inline call needs none of
// it, but a real SEND would carry it, so its bytes are charged.
const rpcHeader = 13

// Call runs an RPC on qp's target machine and returns the reply. The request
// is a SEND on qp: the caller's clock pays Profile.Send plus the request's
// wire time. The target's handler then runs inline, on the caller's
// goroutine, charged to nobody, and the reply's bytes queue on the target's
// aux QP back to the caller, on the target's aux clock, which the caller
// does not wait for (known delta 11). An unknown kind gets an empty reply. A
// call to or from a dead machine fails at once with rdma.ErrNodeDead, as a
// one-sided verb does; a call cannot be lost, so it has no deadline.
func (m *Machine) Call(qp *rdma.QP, kind uint8, payload []byte) ([]byte, error) {
	if m.Dead() {
		return nil, rdma.ErrNodeDead
	}
	if err := qp.Send(rpcHeader + len(payload)); err != nil {
		return nil, err
	}
	t := m.cluster.Machines[qp.Remote()]
	t.handlersMu.RLock()
	h := t.handlers[kind]
	t.handlersMu.RUnlock()
	var reply []byte
	if h != nil {
		reply = h(m.ID, payload)
	}
	if err := t.auxQPs[m.ID].Send(rpcHeader + len(reply)); err != nil {
		return nil, err
	}
	return reply, nil
}

// runAux is the machine's auxiliary thread (the truncation thread of §5.1).
// It sleeps until auxWake, then makes a pass: apply and truncate every ring
// this machine hosts, and push its own watermarks out so peers can truncate.
func (m *Machine) runAux() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.auxWake:
		}
		for _, a := range m.appliers {
			// The self-ring is real: a coordinator that backs up a
			// remote shard logs to itself over a loop-back QP.
			_, _ = a.Poll()
		}
		for dst, w := range m.logWriters {
			if rdma.NodeID(dst) == m.ID || !m.cluster.Net.NIC(rdma.NodeID(dst)).Alive() {
				continue
			}
			_ = w.PushWatermark(m.auxQPs[dst], false)
		}
	}
}

// Start launches every machine's background threads: its auxiliary thread
// and its failure detector. RPCs need no thread of their own (Call).
func (c *Cluster) Start() {
	for _, m := range c.Machines {
		// The initial epoch needs no log recovery; mark it recovered up
		// front so the dangling-lock fence opens immediately.
		c.Coord.MarkRecovered(c.Coord.Epoch(), m.ID)
		m.wg.Add(2)
		go m.runAux()
		go m.runDetector(c.Coord.Subscribe())
	}
}

// Stop terminates all background threads (for tests and benches).
func (c *Cluster) Stop() {
	for _, m := range c.Machines {
		m.stopOnce.Do(func() { close(m.stop) })
	}
	for _, m := range c.Machines {
		m.wg.Wait()
	}
}
