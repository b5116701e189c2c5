package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
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

// Spec sizes a simulated cluster.
type Spec struct {
	Nodes     int
	Replicas  int // copies per shard (1 = no replication, 3 = paper's f+1)
	MemBytes  int // per-machine NVRAM
	RingBytes int
	HTM       htm.Config
	RDMA      rdma.Config
	// Lease is the failure-detection lease (wall clock); the paper uses a
	// conservative 10ms.
	Lease time.Duration
	// HeartbeatEvery is the detector polling period.
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

	handlersMu sync.RWMutex
	handlers   map[uint8]Handler

	pendingMu sync.Mutex
	pending   map[uint64]chan []byte
	nextReqID atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	dead     atomic.Bool
}

// Handler processes one RPC request on the hosting machine and returns the
// reply payload. Handlers run on the machine's auxiliary thread.
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

	events   chan Event
	obsRec   atomic.Pointer[obs.Recorder]
	recovery recoveryState
}

// Event reports a recovery-timeline milestone (Fig 20's "suspect",
// "config-commit", "recovery-done").
type Event struct {
	Kind string
	Node rdma.NodeID
	At   time.Time
}

// New builds a cluster. Workers are created by the transaction layer; Start
// launches heartbeat/detector/auxiliary threads.
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
		spec.RingBytes = 1 << 20
	}
	if spec.Lease == 0 {
		// The paper's conservative lease is 10ms on dedicated cores; the
		// simulator often runs heavily oversubscribed (many simulated
		// machines on few host cores), where a tight lease yields false
		// suspicions. Recovery experiments set 10ms explicitly.
		spec.Lease = 500 * time.Millisecond
	}
	if spec.HeartbeatEvery == 0 {
		spec.HeartbeatEvery = 2 * time.Millisecond
	}
	c := &Cluster{
		Spec:   spec,
		Net:    rdma.NewNetwork(spec.Nodes, spec.RDMA),
		Coord:  NewCoordinator(NewInitialConfig(spec.Nodes, spec.Replicas)),
		events: make(chan Event, 64),
	}
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
			pending:  make(map[uint64]chan []byte),
			stop:     make(chan struct{}),
		}
		m.cfg.Store(initial)
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

// Events returns the recovery-milestone stream.
func (c *Cluster) Events() <-chan Event { return c.events }

// SetRecorder attaches an obs recorder to the milestone stream: every emit
// additionally records an obs.EvMilestone instant event stamped with WALL
// time (recovery runs on wall clock — leases and detection are real-time
// mechanisms; see harness.RunRecovery). Milestones come from several machine
// goroutines concurrently, so pass a shared (mutex-guarded) recorder.
func (c *Cluster) SetRecorder(r *obs.Recorder) { c.obsRec.Store(r) }

// milestoneCode maps the event-kind string to its obs milestone code.
func milestoneCode(kind string) (uint8, bool) {
	switch kind {
	case "killed":
		return obs.MilestoneKilled, true
	case "suspect":
		return obs.MilestoneSuspect, true
	case "config-commit":
		return obs.MilestoneConfigCommit, true
	case "recovery-done":
		return obs.MilestoneRecoveryDone, true
	}
	return 0, false
}

func (c *Cluster) emit(kind string, node rdma.NodeID) {
	//drtmr:allow virtualtime milestone events are stamped in observer wall time for the recovery timeline
	now := time.Now()
	if r := c.obsRec.Load(); r != nil {
		if code, ok := milestoneCode(kind); ok {
			ns := now.UnixNano()
			r.Record(obs.EvMilestone, code, uint16(node), 0, 0, ns, ns)
		}
	}
	select {
	case c.events <- Event{Kind: kind, Node: node, At: now}:
	default:
	}
}

// Machine returns machine id.
func (c *Cluster) Machine(id rdma.NodeID) *Machine { return c.Machines[id] }

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

// RegisterHandler installs the RPC handler for a message kind. Kind 0xFF is
// reserved for replies.
func (m *Machine) RegisterHandler(kind uint8, h Handler) {
	if kind == replyKind {
		panic("cluster: kind 0xFF is reserved")
	}
	m.handlersMu.Lock()
	m.handlers[kind] = h
	m.handlersMu.Unlock()
}

const replyKind = 0xFF

// Call sends an RPC to dst's auxiliary thread over the caller's QP and waits
// for the reply. Message cost is charged to the QP's clock; the handler runs
// on the remote machine.
func (m *Machine) Call(qp *rdma.QP, kind uint8, payload []byte, timeout time.Duration) ([]byte, error) {
	reqID := m.nextReqID.Add(1)
	ch := make(chan []byte, 1)
	m.pendingMu.Lock()
	m.pending[reqID] = ch
	m.pendingMu.Unlock()
	defer func() {
		m.pendingMu.Lock()
		delete(m.pending, reqID)
		m.pendingMu.Unlock()
	}()
	buf := make([]byte, 13+len(payload))
	buf[0] = kind
	binary.LittleEndian.PutUint64(buf[1:9], reqID)
	binary.LittleEndian.PutUint32(buf[9:13], uint32(m.ID))
	copy(buf[13:], payload)
	if err := qp.Send(buf); err != nil {
		return nil, err
	}
	select {
	case reply := <-ch:
		return reply, nil
	//drtmr:allow virtualtime RPC timeout is a liveness backstop that only ever aborts, never commits
	case <-time.After(timeout):
		return nil, fmt.Errorf("cluster: rpc kind %d to node %d timed out", kind, qp.Remote())
	case <-m.stop:
		return nil, fmt.Errorf("cluster: machine %d stopping", m.ID)
	}
}

// serveMessages is the auxiliary receive loop: dispatches requests to
// handlers and routes replies to waiting callers.
func (m *Machine) serveMessages() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		msg, err := m.cluster.Net.NIC(m.ID).Recv(time.Millisecond)
		if err != nil {
			if err == rdma.ErrNodeDead {
				return
			}
			continue
		}
		if len(msg.Payload) < 13 {
			continue
		}
		kind := msg.Payload[0]
		reqID := binary.LittleEndian.Uint64(msg.Payload[1:9])
		origin := rdma.NodeID(binary.LittleEndian.Uint32(msg.Payload[9:13]))
		body := msg.Payload[13:]
		if kind == replyKind {
			m.pendingMu.Lock()
			ch := m.pending[reqID]
			m.pendingMu.Unlock()
			if ch != nil {
				select {
				case ch <- append([]byte(nil), body...):
				default:
				}
			}
			continue
		}
		m.handlersMu.RLock()
		h := m.handlers[kind]
		m.handlersMu.RUnlock()
		var reply []byte
		if h != nil {
			reply = h(origin, body)
		}
		out := make([]byte, 13+len(reply))
		out[0] = replyKind
		binary.LittleEndian.PutUint64(out[1:9], reqID)
		binary.LittleEndian.PutUint32(out[9:13], uint32(m.ID))
		copy(out[13:], reply)
		// Replies go back on the aux QP to the origin.
		_ = m.auxQPs[origin].Send(out)
	}
}

// runAux drains log rings (truncation threads) and pushes watermarks.
func (m *Machine) runAux() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		worked := 0
		for _, a := range m.appliers {
			// The self-ring is real: a coordinator that backs up a
			// remote shard logs to itself over a loop-back QP.
			n, err := a.Poll()
			if err == nil {
				worked += n
			}
		}
		// Push our watermarks out so peers can truncate.
		for dst, w := range m.logWriters {
			if rdma.NodeID(dst) == m.ID || !m.cluster.Net.NIC(rdma.NodeID(dst)).Alive() {
				continue
			}
			_ = w.PushWatermark(m.auxQPs[dst], false)
		}
		if worked == 0 {
			sim.Spin(200 * time.Microsecond)
		}
	}
}

// runHeartbeat bumps this machine's heartbeat word (local store, remote
// machines read it with RDMA).
func (m *Machine) runHeartbeat() {
	defer m.wg.Done()
	tick := m.cluster.Spec.HeartbeatEvery / 2
	if tick <= 0 {
		tick = time.Millisecond
	}
	for {
		select {
		case <-m.stop:
			return
		//drtmr:allow virtualtime heartbeat cadence is liveness machinery outside the deterministic replay scope
		case <-time.After(tick):
			m.Eng.FAA64NonTx(HeartbeatOff, 1)
		}
	}
}

// watchConfig keeps the cached configuration fresh.
func (m *Machine) watchConfig(sub <-chan *Config) {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case cfg := <-sub:
			if cfg != nil {
				m.applyNewConfig(cfg)
			}
		//drtmr:allow virtualtime config-refresh polling is liveness machinery outside the deterministic replay scope
		case <-time.After(50 * time.Millisecond):
			cfg := m.cluster.Coord.Current()
			if cfg.Epoch > m.cfg.Load().Epoch {
				m.applyNewConfig(cfg)
			}
		}
	}
}

// Start launches every machine's background threads.
func (c *Cluster) Start() {
	for _, m := range c.Machines {
		// The initial epoch needs no log recovery; mark it recovered up
		// front so the dangling-lock fence opens immediately.
		c.Coord.MarkRecovered(c.Coord.Epoch(), m.ID)
		m.wg.Add(4)
		go m.serveMessages()
		go m.runAux()
		go m.runHeartbeat()
		go m.watchConfig(c.Coord.Subscribe())
	}
	c.wgDetectors()
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

// Kill fail-stops a machine: its NIC goes dark and its threads halt. Memory
// is preserved (battery-backed NVRAM).
func (c *Cluster) Kill(id rdma.NodeID) {
	m := c.Machines[id]
	m.dead.Store(true)
	c.Net.NIC(id).Kill()
	m.stopOnce.Do(func() { close(m.stop) })
	c.emit("killed", id)
}
