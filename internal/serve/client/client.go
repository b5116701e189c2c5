// Package client is the Go client for drtmr-serve: a connection pool over
// the wire protocol (internal/serve/wire) with per-request deadlines and
// typed abort reconstruction — an abort, shed or deadline failure surfaces
// as the *txn.Error the server built, with its Reason, Stage, Site and
// label (Detail).
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"drtmr/internal/serve/wire"
	"drtmr/internal/txn"
)

// Options tunes a Client.
type Options struct {
	// Addr is the server's TCP address.
	Addr string
	// MaxConns caps the pool (default 8). A Call with every connection
	// busy waits for one to free up rather than dialing unboundedly.
	MaxConns int
	// Deadline is the default per-request deadline sent to the server and
	// enforced on the socket (0 = none; per-call deadlines override).
	Deadline time.Duration
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
}

// RequestError is a client-side mistake the server rejected (unknown
// procedure, malformed arguments). Not retryable as-is.
type RequestError struct{ Detail string }

func (e *RequestError) Error() string { return "serve: bad request: " + e.Detail }

// ServerError is a server-side failure outside the abort taxonomy.
type ServerError struct{ Detail string }

func (e *ServerError) Error() string { return "serve: server error: " + e.Detail }

// IsBusy reports whether err is an admission-control shed (ServerBusy): the
// request never executed and may be retried after backing off.
func IsBusy(err error) bool {
	var te *txn.Error
	return errors.As(err, &te) && te.Reason == txn.AbortServerBusy
}

// IsDeadline reports whether err is a deadline failure — the server-side
// queue-expiry abort or a socket timeout waiting for the reply.
func IsDeadline(err error) bool {
	var te *txn.Error
	if errors.As(err, &te) && te.Reason == txn.AbortDeadline {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// pconn is one pooled connection. It reads through a bufio.Reader and
// keeps its buffers from call to call: out holds the frame being sent, in
// the reply frame read.
type pconn struct {
	nc  net.Conn
	br  *bufio.Reader
	out []byte
	in  []byte
}

// Client is a pooled connection to one drtmr-serve instance. Safe for
// concurrent use; each in-flight Call owns one pooled connection.
type Client struct {
	opts   Options
	nextID atomic.Uint64

	mu     sync.Mutex
	cond   *sync.Cond
	idle   []*pconn
	total  int
	closed bool
}

// New creates a client. Connections are dialed lazily on first use.
func New(o Options) *Client {
	if o.MaxConns <= 0 {
		o.MaxConns = 8
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	c := &Client{opts: o}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Close closes every pooled connection; in-flight calls fail.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	for _, p := range c.idle {
		//drtmr:allow lockorder teardown: TCP Close tears down the socket without blocking on the peer, and the pool must be drained atomically with the closed flag
		p.nc.Close()
	}
	c.idle = nil
	c.cond.Broadcast()
	c.mu.Unlock()
}

var errClosed = errors.New("serve client: closed")

func (c *Client) acquire() (*pconn, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, errClosed
		}
		if n := len(c.idle); n > 0 {
			p := c.idle[n-1]
			c.idle = c.idle[:n-1]
			c.mu.Unlock()
			return p, nil
		}
		if c.total < c.opts.MaxConns {
			c.total++
			c.mu.Unlock()
			nc, err := net.DialTimeout("tcp", c.opts.Addr, c.opts.DialTimeout)
			if err != nil {
				c.mu.Lock()
				c.total--
				c.cond.Signal()
				c.mu.Unlock()
				return nil, err
			}
			return &pconn{nc: nc, br: bufio.NewReader(nc)}, nil
		}
		c.cond.Wait()
	}
}

// release returns a healthy connection to the pool; broken ones are closed
// and their slot freed for a fresh dial.
func (c *Client) release(p *pconn, healthy bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !healthy || c.closed {
		//drtmr:allow lockorder teardown: TCP Close tears down the socket without blocking on the peer, and total/cond must update atomically with it
		p.nc.Close()
		c.total--
		c.cond.Signal()
		return
	}
	c.idle = append(c.idle, p)
	c.cond.Signal()
}

// roundTrip encodes one payload with enc into a pooled connection's frame
// buffer, sends the frame in one Write and reads the matching reply frame.
// The returned Msg's Payload is the caller's.
func (c *Client) roundTrip(deadline time.Duration, enc func(dst []byte) ([]byte, error)) (wire.Msg, error) {
	p, err := c.acquire()
	if err != nil {
		return wire.Msg{}, err
	}
	if p.out, err = enc(wire.BeginFrame(p.out[:0])); err == nil {
		err = wire.EndFrame(p.out)
	}
	if err != nil {
		c.release(p, true)
		return wire.Msg{}, err
	}
	if deadline > 0 {
		// Socket deadline with headroom over the server-side deadline, so
		// the typed server answer (Deadline/ServerBusy) wins the race
		// against the client's own timer when the server is alive.
		//drtmr:allow virtualtime socket deadlines on a real network client are wall time
		p.nc.SetDeadline(time.Now().Add(deadline + deadline/2 + 100*time.Millisecond))
	} else {
		//drtmr:allow virtualtime socket deadlines on a real network client are wall time
		p.nc.SetDeadline(time.Time{})
	}
	if _, err := p.nc.Write(p.out); err != nil {
		c.release(p, false)
		return wire.Msg{}, err
	}
	reply, err := wire.ReadFrame(p.br, p.in)
	if err != nil {
		c.release(p, false)
		return wire.Msg{}, err
	}
	p.in = reply[:cap(reply)]
	m, err := wire.Decode(reply)
	if err != nil {
		c.release(p, false)
		return wire.Msg{}, err
	}
	// Copy out of the pooled buffer before the connection is reused.
	m.Payload = append([]byte(nil), m.Payload...)
	m.Args = nil
	c.release(p, true)
	return m, nil
}

// Call executes the named stored procedure with the client's default
// deadline and returns its reply payload. A typed abort comes back as the
// *txn.Error the server built (Table, Key and Seen stay on the server); a
// rejected request as *RequestError; any other server failure, a committed
// transaction whose reply would not fit a frame among them, as
// *ServerError.
func (c *Client) Call(proc string, args []byte) ([]byte, error) {
	return c.CallDeadline(proc, args, c.opts.Deadline)
}

// CallDeadline is Call with an explicit per-request deadline (0 = none).
func (c *Client) CallDeadline(proc string, args []byte, deadline time.Duration) ([]byte, error) {
	id := c.nextID.Add(1)
	us := uint64(deadline / time.Microsecond)
	if deadline > 0 && us == 0 {
		us = 1 // the wire's resolution is 1us; round sub-us deadlines up, not off
	}
	if us > 1<<32-1 {
		us = 1<<32 - 1
	}
	m, err := c.roundTrip(deadline, func(dst []byte) ([]byte, error) {
		return wire.AppendCall(dst, id, uint32(us), proc, args)
	})
	if err != nil {
		return nil, err
	}
	if m.Kind != wire.KindResult || m.ID != id {
		return nil, fmt.Errorf("serve client: protocol violation: kind %d id %d (want result id %d)", m.Kind, m.ID, id)
	}
	switch m.Status {
	case wire.StatusOK:
		return m.Payload, nil
	case wire.StatusAbort:
		return nil, &txn.Error{
			Reason: txn.AbortReason(m.Reason),
			Stage:  m.Stage,
			Site:   m.Site,
			Detail: m.Detail,
		}
	case wire.StatusBadRequest:
		return nil, &RequestError{Detail: m.Detail}
	default:
		return nil, &ServerError{Detail: m.Detail}
	}
}

// Status fetches a live status snapshot as raw JSON (unmarshal into
// serve.Status).
func (c *Client) Status() ([]byte, error) {
	id := c.nextID.Add(1)
	m, err := c.roundTrip(c.opts.Deadline, func(dst []byte) ([]byte, error) {
		return wire.AppendStatusReq(dst, id), nil
	})
	if err != nil {
		return nil, err
	}
	if m.Kind != wire.KindStatusResult || m.ID != id {
		return nil, fmt.Errorf("serve client: protocol violation: kind %d id %d (want status id %d)", m.Kind, m.ID, id)
	}
	return m.Payload, nil
}
