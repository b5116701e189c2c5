package serve

import (
	"fmt"
	"sync"

	"drtmr/internal/txn"
)

// Proc is a stored procedure: a whole transaction the server executes on a
// worker homed near the data, mirroring the bench txn shape (one func, one
// retry loop, typed aborts). Clients name it over the wire; the body never
// crosses the network.
type Proc struct {
	// Name is the wire identifier (<= 255 bytes).
	Name string
	// Fn executes the procedure on a single-goroutine engine worker. It
	// returns the reply payload, or a *txn.Error for a typed abort, or any
	// other error for a bad-request/user failure. Fn must be idempotent up
	// to its writes (it runs under the worker's retry loop).
	Fn func(w *txn.Worker, args []byte) ([]byte, error)
	// Protocol, when non-empty, selects the commit protocol for this
	// procedure ("drtmr", "farm") — set per request on the worker, so two
	// procedures on one server can commit through different pipelines.
	Protocol string
	// Home, when non-nil, routes a request to the node that owns its hot
	// record (args -> node), so the executing worker is local to the data.
	// Requests without a home are spread round-robin.
	Home func(args []byte) (node int, ok bool)
}

// procEntry is a registered procedure plus its dense index — its histogram's
// place in each executor's per-procedure latency histograms.
type procEntry struct {
	Proc
	idx int
}

// registry maps procedure names to entries. Registration happens before
// Start; lookups after are lock-free reads of an immutable map would be
// nicer, but a RWMutex keeps misuse (late Register) safe instead of racy.
type registry struct {
	mu     sync.RWMutex
	byName map[string]*procEntry
	order  []*procEntry
}

func (r *registry) register(p Proc) error {
	if p.Name == "" || len(p.Name) > 255 {
		return fmt.Errorf("serve: invalid procedure name %q", p.Name)
	}
	if p.Fn == nil {
		return fmt.Errorf("serve: procedure %q has no body", p.Name)
	}
	if p.Protocol != "" {
		if _, ok := txn.ProtocolByName(p.Protocol); !ok {
			return fmt.Errorf("serve: procedure %q names unknown protocol %q", p.Name, p.Protocol)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]*procEntry)
	}
	if _, dup := r.byName[p.Name]; dup {
		return fmt.Errorf("serve: procedure %q already registered", p.Name)
	}
	e := &procEntry{Proc: p, idx: len(r.order)}
	r.byName[p.Name] = e
	r.order = append(r.order, e)
	return nil
}

func (r *registry) lookup(name string) *procEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}

// len returns the number of registered procedures.
func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}
