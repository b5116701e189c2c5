// Package serve is drtmr's network front door: a TCP server that executes
// registered stored procedures (whole transactions) against an embedded
// drtmr cluster, with per-procedure commit-protocol selection, admission
// control with overload shedding, and a live status endpoint.
//
// Architecture: each accepted connection gets a reader goroutine that reads
// frames (internal/serve/wire) through a buffered reader it owns, decodes
// them, runs admission, and routes the request to a per-node FIFO queue; a
// fixed pool of worker goroutines per node — each owning one
// single-goroutine engine worker — drains the queue and executes. Responses
// are encoded into the connection's frame buffer and written back in one
// Write under a per-connection write lock, so a frame costs one syscall and
// workers never block each other on another connection's socket. Status
// requests are answered directly on the reader goroutine from the live
// aggregate (liveStats): the read path never queues behind the commit
// pipeline.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"drtmr"
	"drtmr/internal/obs"
	"drtmr/internal/serve/wire"
	"drtmr/internal/txn"
)

// Options tunes a Server.
type Options struct {
	// WorkersPerNode is the number of executor goroutines (each with its
	// own engine worker) per cluster node. Default 2.
	WorkersPerNode int
	// Admission configures the overload controller.
	Admission AdmissionConfig
	// History turns on per-worker history recording for the
	// strict-serializability checker (HistoryTxns after Close). Meant for
	// the CI serve gate; it grows memory with every committed transaction.
	History bool
}

// request is one admitted call waiting for (or in) execution.
type request struct {
	c        *conn
	id       uint64
	proc     *procEntry
	args     []byte // copied out of the connection's read buffer
	deadline time.Duration
	enq      time.Time
}

// queue is an unbounded FIFO. Unbounded on purpose: boundedness is the
// admission controller's job, and the -admission off ablation needs a queue
// that really does grow without limit so the tail collapse is observable.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []request
	head   int
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(r request) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, r)
	q.cond.Signal()
	return true
}

func (q *queue) pop() (request, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.items) {
		return request{}, false
	}
	r := q.items[q.head]
	q.items[q.head] = request{} // release the args for GC
	q.head++
	if q.head > 1024 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return r, true
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// conn is one client connection: reads happen on its reader goroutine,
// through a bufio.Reader that goroutine owns; writes from any worker under
// wmu, into out, the frame buffer the connection keeps.
type conn struct {
	nc  net.Conn
	wmu sync.Mutex
	out []byte // guarded by wmu
}

// writeResult frames and writes one Result message.
func (c *conn) writeResult(id uint64, status, reason, stage uint8, site uint16, detail string, payload []byte) error {
	return c.writeFrame(func(dst []byte) []byte {
		dst, _ = wire.AppendResult(dst, id, status, reason, stage, site, detail, payload)
		return dst
	})
}

func (c *conn) writeStatusResult(id uint64, json []byte) error {
	return c.writeFrame(func(dst []byte) []byte { return wire.AppendStatusResult(dst, id, json) })
}

// writeFrame encodes one payload with enc into the connection's frame buffer
// and sends the frame in one Write.
func (c *conn) writeFrame(enc func(dst []byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.out = enc(wire.BeginFrame(c.out[:0]))
	if err := wire.EndFrame(c.out); err != nil {
		return err
	}
	//drtmr:allow lockorder wmu exists to serialize whole frames onto the socket; holding it across the write IS the invariant (interleaved partial frames would corrupt the stream)
	_, err := c.nc.Write(c.out)
	return err
}

// liveStats is the server-wide mid-run aggregate the status endpoint
// snapshots, and the only way a number reaches it. Each executor owns slot
// i and publishes into it every statsPublishEvery requests and when it
// exits: a copy of its engine counters and of its per-procedure
// service-time histograms. Sheds, which connection readers refuse too, are
// counted in sheds.
type liveStats struct {
	mu    sync.Mutex
	execs []execSlot      // guarded by mu; slot i belongs to executor i
	sheds obs.AbortMatrix // guarded by mu
}

// execSlot is what one executor last published.
type execSlot struct {
	stats txn.Stats
	procs []obs.Histogram // service time (wall ns), by procedure index
}

// publish replaces executor i's slot with its worker's current counters and
// its procedures' histograms. The slot keeps a key-abort map of its own: the
// worker goes on writing to its map.
func (l *liveStats) publish(i int, st *txn.Stats, procs []obs.Histogram) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot := &l.execs[i]
	hot := slot.stats.KeyAborts
	if hot == nil && len(st.KeyAborts) > 0 {
		hot = make(map[txn.HotKey]uint64, len(st.KeyAborts))
	}
	slot.stats = *st
	slot.stats.KeyAborts = hot
	maps.Copy(hot, st.KeyAborts)
	copy(slot.procs, procs)
}

// shed counts a request the front door refused: at admission or, expired,
// in the queue.
func (l *liveStats) shed(e *txn.Error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sheds.Record(uint8(e.Reason), e.Stage, int(e.Site))
}

// merged sums every executor's slot into one Stats and one histogram per
// procedure. aborts is the engine's abort count, taken before the sheds
// join the matrix.
func (l *liveStats) merged() (agg *txn.Stats, aborts uint64, procs []obs.Histogram) {
	agg = &txn.Stats{}
	l.mu.Lock()
	defer l.mu.Unlock()
	procs = make([]obs.Histogram, len(l.execs[0].procs))
	for i := range l.execs {
		agg.Merge(&l.execs[i].stats)
		for p := range procs {
			procs[p].Merge(&l.execs[i].procs[p])
		}
	}
	aborts = agg.AbortsTotal()
	agg.AbortMatrix.Merge(&l.sheds)
	return agg, aborts, procs
}

// Server is a running drtmr-serve instance.
type Server struct {
	db   *drtmr.DB
	opts Options
	reg  registry
	adm  *admission
	live *liveStats

	queues  []*queue
	nextRR  atomic.Uint64 // round-robin node cursor for homeless requests
	started atomic.Bool
	closed  atomic.Bool
	conns   sync.Map // *conn -> struct{}; closed with the server

	lis     net.Listener
	httpMu  sync.Mutex
	httpSrv []*http.Server
	wg      sync.WaitGroup // workers + accept loop + readers + http
	start   time.Time

	// Strict-serializability capture (Options.History).
	ticks   *obs.TickSource
	histMu  sync.Mutex
	history []*obs.HistoryRecorder
}

// New wraps an opened (and loaded) drtmr.DB in a server. Register
// procedures, then Start.
func New(db *drtmr.DB, o Options) *Server {
	if o.WorkersPerNode <= 0 {
		o.WorkersPerNode = 2
	}
	s := &Server{db: db, opts: o}
	if o.History {
		s.ticks = obs.NewTickSource()
	}
	return s
}

// Register adds a stored procedure. Must be called before Start.
func (s *Server) Register(p Proc) error {
	if s.started.Load() {
		return errors.New("serve: Register after Start")
	}
	return s.reg.register(p)
}

// Workers returns the total executor count (nodes × WorkersPerNode).
func (s *Server) Workers() int {
	return len(s.db.Cluster().Machines) * s.opts.WorkersPerNode
}

// Start listens on addr (e.g. "127.0.0.1:0"), spawns the executor pool, and
// begins accepting connections. Returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	if s.started.Swap(true) {
		return nil, errors.New("serve: already started")
	}
	nodes := len(s.db.Cluster().Machines)
	s.adm = newAdmission(s.opts.Admission, nodes*s.opts.WorkersPerNode)
	s.live = &liveStats{execs: make([]execSlot, s.Workers())}
	for i := range s.live.execs {
		s.live.execs[i].procs = make([]obs.Histogram, s.reg.len())
	}
	s.start = now()
	s.queues = make([]*queue, nodes)
	for n := range s.queues {
		s.queues[n] = newQueue()
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lis = lis
	for n := 0; n < nodes; n++ {
		for i := 0; i < s.opts.WorkersPerNode; i++ {
			s.wg.Add(1)
			go s.workerLoop(n, n*s.opts.WorkersPerNode+i)
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return lis.Addr(), nil
}

// Addr returns the listener address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Close stops accepting, drains nothing (queued requests are abandoned:
// their connections are closing anyway), waits for workers, and closes the
// cluster. Safe to call once.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.lis != nil {
		s.lis.Close()
	}
	s.httpMu.Lock()
	for _, srv := range s.httpSrv {
		// Close shuts the listener and every connection, kept-alive ones
		// included: an idle /statusz client must not pin the server.
		//drtmr:allow lockorder shutdown: Server.Close closes sockets without waiting on any peer; httpMu only orders it against server registration
		srv.Close()
	}
	s.httpMu.Unlock()
	s.conns.Range(func(k, _ any) bool {
		k.(*conn).nc.Close()
		return true
	})
	for _, q := range s.queues {
		q.close()
	}
	s.wg.Wait()
	s.db.Close()
}

// HistoryTxns returns every recorded transaction ordered by invocation tick
// (empty unless Options.History). Call after the load finishes: recorders
// are only safe to read once their workers are idle.
func (s *Server) HistoryTxns() []obs.HistTxn {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return obs.MergeHistory(s.history...)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{nc: nc}
		s.conns.Store(c, struct{}{})
		s.wg.Add(1)
		go s.readLoop(c)
	}
}

// route picks the executing node for a call: the procedure's home node when
// it has one (worker-local data), round-robin otherwise.
func (s *Server) route(e *procEntry, args []byte) int {
	if e.Home != nil {
		if n, ok := e.Home(args); ok && n >= 0 && n < len(s.queues) {
			return n
		}
	}
	return int(s.nextRR.Add(1)) % len(s.queues)
}

// readLoop is a connection's reader: decode, admit, route. Malformed frames
// close the connection (the protocol is not self-synchronizing); unknown
// procedures and sheds are per-request errors on a healthy connection.
func (s *Server) readLoop(c *conn) {
	defer s.wg.Done()
	defer s.conns.Delete(c)
	defer c.nc.Close()
	br := bufio.NewReader(c.nc)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			return // EOF, peer reset, or framing violation
		}
		buf = payload[:cap(payload)]
		m, err := wire.Decode(payload)
		if err != nil {
			return
		}
		switch m.Kind {
		case wire.KindStatus:
			// Served inline on the reader: a snapshot read must never
			// queue behind (or get shed with) the write path.
			if err := c.writeStatusResult(m.ID, s.statusJSON()); err != nil {
				return
			}
		case wire.KindCall:
			e := s.reg.lookup(m.Proc)
			if e == nil {
				if err := c.writeResult(m.ID, wire.StatusBadRequest, 0, 0, 0,
					fmt.Sprintf("unknown procedure %q", m.Proc), nil); err != nil {
					return
				}
				continue
			}
			node := s.route(e, m.Args)
			deadline := time.Duration(m.DeadlineUs) * time.Microsecond
			if shed := s.adm.admit(node, deadline); shed != nil {
				s.live.shed(shed)
				s.respond(request{c: c, id: m.ID}, nil, shed)
				continue
			}
			args := make([]byte, len(m.Args))
			copy(args, m.Args)
			req := request{c: c, id: m.ID, proc: e, args: args, deadline: deadline, enq: now()}
			if !s.queues[node].push(req) {
				s.adm.finish(0)
				return // server closing
			}
		default:
			return // clients must not send Result/StatusResult
		}
	}
}

// statsPublishEvery is how many requests a worker executes between
// publishing its engine stats and procedure histograms to the live
// aggregate. Small enough that the status endpoint is fresh, large enough
// that publishing (a copy of both under the aggregate's lock) stays off the
// per-request path.
const statsPublishEvery = 32

// workerLoop drains one node's queue on a dedicated engine worker; exec is
// the executor's index in the live aggregate.
func (s *Server) workerLoop(node, exec int) {
	defer s.wg.Done()
	sess := s.db.Session(drtmr.NodeID(node))
	w := sess.Worker()
	if s.ticks != nil {
		h := w.EnableHistory(s.ticks)
		s.histMu.Lock()
		s.history = append(s.history, h)
		s.histMu.Unlock()
	}
	procs := make([]obs.Histogram, s.reg.len())
	sincePublish := 0
	defer func() { s.live.publish(exec, &w.Stats, procs) }()
	for {
		req, ok := s.queues[node].pop()
		if !ok {
			return
		}
		if req.deadline > 0 {
			if waited := since(req.enq); waited > req.deadline {
				s.adm.expire()
				e := &txn.Error{
					Reason: txn.AbortDeadline,
					Stage:  txn.StageAdmission,
					Site:   uint16(node),
					Detail: "deadline expired in queue",
					Seen:   uint64(waited),
				}
				s.live.shed(e)
				s.respond(req, nil, e)
				s.adm.finish(0)
				continue
			}
		}
		w.Protocol = req.proc.Protocol
		begin := now()
		reply, err := req.proc.Fn(w, req.args)
		svc := since(begin)
		procs[req.proc.idx].Record(svc.Nanoseconds())
		s.respond(req, reply, err)
		s.adm.finish(svc)
		if sincePublish++; sincePublish >= statsPublishEvery {
			s.live.publish(exec, &w.Stats, procs)
			sincePublish = 0
		}
	}
}

// respond writes a request's Result. A reply too large for a frame is
// answered with StatusError, which says the transaction committed: dropped,
// it would leave the caller to time out on a commit. Other write errors are
// swallowed: the client is gone, and its remaining queued requests will
// fail the same way.
func (s *Server) respond(req request, reply []byte, err error) {
	switch {
	case err == nil:
		if err := req.c.writeResult(req.id, wire.StatusOK, 0, 0, 0, "", reply); errors.Is(err, wire.ErrFrameTooLarge) {
			_ = req.c.writeResult(req.id, wire.StatusError, 0, 0, 0, replyTooLarge, nil)
		}
	default:
		var te *txn.Error
		if errors.As(err, &te) {
			_ = req.c.writeResult(req.id, wire.StatusAbort, uint8(te.Reason),
				te.Stage, te.Site, te.Detail, nil)
			return
		}
		status := wire.StatusError
		if errors.Is(err, drtmr.ErrNotFound) || errors.Is(err, errBadArgs) {
			status = wire.StatusBadRequest
		}
		_ = req.c.writeResult(req.id, uint8(status), 0, 0, 0, err.Error(), nil)
	}
}

// replyTooLarge is the detail of a committed transaction's reply that
// exceeds wire.MaxFrame.
const replyTooLarge = "reply exceeds the frame limit; the transaction committed"

// errBadArgs marks malformed stored-procedure arguments (StatusBadRequest
// on the wire, like an unknown procedure).
var errBadArgs = errors.New("serve: malformed procedure arguments")
