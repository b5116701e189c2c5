// Package htm simulates Intel Restricted Transactional Memory (RTM) with the
// semantics the DrTM+R protocol depends on:
//
//   - Conflict detection at cacheline granularity, requester-wins (an access
//     that conflicts with a running hardware transaction aborts that
//     transaction, mirroring how a coherence invalidation kills an RTM
//     transaction's speculative state).
//   - Strong atomicity: NON-transactional accesses — including incoming
//     one-sided RDMA operations, which are cache coherent on the paper's
//     hardware — unconditionally abort conflicting transactions.
//   - Best effort only: transactions can abort for capacity (the write set is
//     bounded by the 32KB L1, the read set by a larger tracking structure)
//     or spuriously, so callers always need a fallback path.
//   - Explicit aborts (XABORT) carrying an 8-bit code, used by DrTM+R's
//     "record is remotely locked" manual abort in local reads (§4.3).
//
// Implementation: a software transactional memory over a byte arena with
// eager (in-place) writes plus per-line undo, visible readers, and a per-line
// registry sharded by cacheline index. A transaction holds its operation
// mutex for the duration of each operation; an external aborter first flips
// the status word, then acquires that mutex to run cleanup, so cleanup never
// races an in-flight operation. No code path ever holds two shard locks at
// once, which keeps the engine deadlock-free by construction.
//
// The registry owns membership: a line entry's writer and readers say who
// holds the line. Each shard keeps its live entries by value in a short slice
// it scans, since only a few dozen lines are live at once. A Txn keeps only
// its footprint, on arrays inside it, and an ended region handed back with
// Release is reused by a later Begin under the next generation of its status
// word, so a small region costs no heap object.
package htm

import (
	"fmt"
	"sync"

	"drtmr/internal/sim"
)

// AbortCause classifies why a transaction aborted, mirroring the RTM abort
// status word.
type AbortCause uint8

const (
	// CauseConflict: another transaction or a non-transactional (e.g.
	// RDMA) access touched a line in our read/write set.
	CauseConflict AbortCause = iota + 1
	// CauseCapacity: read or write set exceeded the hardware bound.
	CauseCapacity
	// CauseExplicit: the transaction executed XABORT with a code.
	CauseExplicit
	// CauseSpurious: best-effort hardware gave up for no visible reason
	// (interrupt, TLB shootdown...). Injected with a configurable
	// probability to keep fallback paths honest.
	CauseSpurious
)

func (c AbortCause) String() string {
	switch c {
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseExplicit:
		return "explicit"
	case CauseSpurious:
		return "spurious"
	default:
		return fmt.Sprintf("AbortCause(%d)", uint8(c))
	}
}

// AbortError is returned by transaction operations and Commit when the
// transaction has aborted.
type AbortError struct {
	Cause AbortCause
	// Code is the XABORT code for CauseExplicit aborts.
	Code uint8
}

func (e *AbortError) Error() string {
	if e.Cause == CauseExplicit {
		return fmt.Sprintf("htm: aborted (explicit, code=%#x)", e.Code)
	}
	return "htm: aborted (" + e.Cause.String() + ")"
}

// Config bounds the simulated hardware.
type Config struct {
	// MaxWriteLines is the write-set capacity in cachelines. Intel RTM
	// tracks writes in the 32KB L1: 512 lines.
	MaxWriteLines int
	// MaxReadLines is the read-set capacity in cachelines (tracked in L2
	// plus an implementation-specific filter; much larger than writes).
	MaxReadLines int
	// SpuriousAbortProb injects best-effort aborts per operation.
	SpuriousAbortProb float64
	// Seed seeds the spurious-abort generator.
	Seed uint64
}

// DefaultConfig matches a Xeon E5-2650 v3 class core.
func DefaultConfig() Config {
	return Config{
		MaxWriteLines:     512,
		MaxReadLines:      8192,
		SpuriousAbortProb: 0,
	}
}

const numShards = 1024 // power of two

// Engine is the per-machine HTM simulator over one memory arena.
type Engine struct {
	mem    []byte
	cfg    Config
	shards [numShards]shard

	rngMu sync.Mutex
	rng   *sim.Rand
}

// shard holds the registry entries of the lines whose index it is, by value.
// A dropped entry is swapped past len(lines) and keeps its readers' capacity
// there for the next line the shard registers.
type shard struct {
	mu    sync.Mutex
	lines []line
}

// line is the conflict registry for one cacheline. Protected by its shard's
// mutex, and never used outside it: a *line does not leave the lock, which is
// what makes moving and reusing entries safe.
type line struct {
	idx     uint64
	writer  *Txn
	readers []*Txn
}

// find returns the position of lineIdx's entry in s.lines, or -1. Caller
// holds s.mu.
func (s *shard) find(lineIdx uint64) int {
	for i := range s.lines {
		if s.lines[i].idx == lineIdx {
			return i
		}
	}
	return -1
}

// maybeDrop deregisters the entry at i if nobody holds it any more. Caller
// holds s.mu.
func (s *shard) maybeDrop(i int) {
	if ln := &s.lines[i]; ln.writer != nil || len(ln.readers) > 0 {
		return
	}
	last := len(s.lines) - 1
	s.lines[i], s.lines[last] = s.lines[last], s.lines[i]
	s.lines = s.lines[:last]
}

// NewEngine creates an engine over mem. The arena must be cacheline-aligned
// in length (callers use sim.AlignUp).
func NewEngine(mem []byte, cfg Config) *Engine {
	if cfg.MaxWriteLines <= 0 {
		cfg.MaxWriteLines = DefaultConfig().MaxWriteLines
	}
	if cfg.MaxReadLines <= 0 {
		cfg.MaxReadLines = DefaultConfig().MaxReadLines
	}
	return &Engine{mem: mem, cfg: cfg, rng: sim.NewRand(cfg.Seed)}
}

// Mem exposes the underlying arena. Direct access bypasses conflict
// detection and must only be used for initialization before the engine is
// shared, or by the recovery path on a stopped machine.
func (e *Engine) Mem() []byte { return e.mem }

// Size returns the arena length in bytes.
func (e *Engine) Size() int { return len(e.mem) }

func (e *Engine) shardFor(lineIdx uint64) *shard {
	return &e.shards[lineIdx&(numShards-1)]
}

func (e *Engine) spurious() bool {
	if e.cfg.SpuriousAbortProb <= 0 {
		return false
	}
	e.rngMu.Lock()
	v := e.rng.Float64() < e.cfg.SpuriousAbortProb
	e.rngMu.Unlock()
	return v
}
