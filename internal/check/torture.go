package check

import (
	"fmt"
	"strings"
	"time"

	"drtmr/internal/bench/harness"
	"drtmr/internal/htm"
	"drtmr/internal/txn"
)

// Torture harness: sweep the knob matrix — coroutines per worker × verb
// batching × HTM fallback pressure, plus replicated cells with a machine
// killed mid-run — run each cell under the deterministic schedule gate with
// history recording, and feed every history to the checker.
//
// The no-kill cells are fully deterministic: a cell's entire execution is a
// pure function of its harness.Options (the schedule gate serializes all
// workers through one seeded RNG), so a violating cell is replayed exactly
// by re-running RunCell with the reported cell — same seed, same
// interleaving, same violation. Kill cells run free, without the gate: the
// kill, the lease and the recovery are instants on the cluster's virtual
// clock, but the interleaving around them is the host's, so they reproduce
// statistically; their seed still pins the workload.

// TortureOptions configures a sweep. Zero values take torture defaults
// (NOT the harness's paper defaults — torture wants small, hot, conflicting
// workloads, not throughput-shaped ones).
type TortureOptions struct {
	Seed uint64

	Nodes           int
	ThreadsPerNode  int
	TxPerWorker     int
	AccountsPerNode int     // small => hot => real conflicts
	RemoteProb      float64 // cross-shard transaction probability

	// The knob matrix: one cell per combination.
	Coroutines   []int
	Batching     []bool
	FallbackProb []float64 // HTM spurious-abort probability (fallback pressure)

	// Protocols lists extra commit protocols to sweep AFTER the default
	// drtmr matrix: each named protocol gets a reduced matrix (coroutine ×
	// batching at zero fallback pressure, one fallback-pressure cell, the
	// hot-key contention pair, and — under Kill — a replicated kill cell).
	// nil sweeps ["farm"]; an empty non-nil slice sweeps none. The drtmr
	// cells always come first with unchanged seeds, so existing violating-
	// seed replays stay valid.
	Protocols []string

	// Kill adds replicated (3-way) cells that kill a machine mid-run.
	Kill bool
	// KillTxPerWorker sizes the kill cells; their failure-plane timing
	// (killAt, killLease, killHeartbeat) is sized to the run it gives.
	KillTxPerWorker int

	// Mutations forwards protocol-breaking switches to every cell
	// (mutation-test mode; all-false sweeps the correct protocol).
	Mutations txn.Mutations
}

func (o TortureOptions) defaults() TortureOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.ThreadsPerNode == 0 {
		o.ThreadsPerNode = 2
	}
	if o.TxPerWorker == 0 {
		o.TxPerWorker = 220
	}
	if o.AccountsPerNode == 0 {
		o.AccountsPerNode = 40
	}
	if o.RemoteProb == 0 {
		o.RemoteProb = 0.35
	}
	if len(o.Coroutines) == 0 {
		o.Coroutines = []int{1, 4}
	}
	if len(o.Batching) == 0 {
		o.Batching = []bool{true, false}
	}
	if len(o.FallbackProb) == 0 {
		o.FallbackProb = []float64{0, 0.15}
	}
	if o.KillTxPerWorker == 0 {
		o.KillTxPerWorker = 150
	}
	if o.Protocols == nil {
		o.Protocols = []string{"farm"}
	}
	return o
}

// Cell is one sweep point: everything needed to run (or replay) it.
type Cell struct {
	Name      string
	Opts      harness.Options
	CheckOpts Options
}

// CellResult is one executed cell plus its checker verdict.
type CellResult struct {
	Cell      Cell
	Committed uint64
	Check     *Result
}

// Report is a full sweep's outcome.
type Report struct {
	Cells       []CellResult
	TxnsChecked int
}

// Ok reports whether every cell's history checked out.
func (r *Report) Ok() bool {
	for i := range r.Cells {
		if !r.Cells[i].Check.Ok() {
			return false
		}
	}
	return true
}

// Violations flattens every cell's violations, tagged with the cell name.
func (r *Report) Violations() []string {
	var out []string
	for i := range r.Cells {
		for _, v := range r.Cells[i].Check.Violations {
			out = append(out, fmt.Sprintf("[%s seed=%#x] %s", r.Cells[i].Cell.Name, r.Cells[i].Cell.Opts.Seed, v))
		}
	}
	return out
}

func (r *Report) String() string {
	var b strings.Builder
	for i := range r.Cells {
		c := &r.Cells[i]
		status := "ok"
		if !c.Check.Ok() {
			status = "VIOLATION"
		}
		fmt.Fprintf(&b, "%-44s seed=%#-18x committed=%-6d checked=%-6d %s\n",
			c.Cell.Name, c.Cell.Opts.Seed, c.Committed, c.Check.Txns, status)
		for _, v := range c.Check.Violations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
	}
	fmt.Fprintf(&b, "%d cells, %d transactions checked", len(r.Cells), r.TxnsChecked)
	if !r.Ok() {
		fmt.Fprintf(&b, " — VIOLATIONS FOUND (replay any cell with its seed)")
	}
	return b.String()
}

// cellSeed derives a cell's seed from the sweep seed: splitmix-style so
// neighbouring cells get uncorrelated streams.
func cellSeed(seed uint64, idx int) uint64 {
	z := seed + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Cells expands the knob matrix into runnable sweep points.
func Cells(o TortureOptions) []Cell {
	o = o.defaults()
	var cells []Cell
	idx := 0
	for _, co := range o.Coroutines {
		for _, batch := range o.Batching {
			for _, fb := range o.FallbackProb {
				seed := cellSeed(o.Seed, idx)
				idx++
				cells = append(cells, Cell{
					Name: fmt.Sprintf("drtmr coro=%d batch=%v fallback=%.2f", co, batch, fb),
					Opts: harness.Options{
						System:            harness.SysDrTMR,
						Workload:          harness.WLSmallBank,
						Nodes:             o.Nodes,
						ThreadsPerNode:    o.ThreadsPerNode,
						TxPerWorker:       o.TxPerWorker,
						SBAccountsPerNode: o.AccountsPerNode,
						SBRemoteProb:      o.RemoteProb,
						Knobs:             txn.Knobs{CoroutinesPerWorker: co, DisableVerbBatching: !batch, Mut: o.Mutations},
						History:           true,
						Deterministic:     true,
						Seed:              seed,
						HTM:               htm.Config{SpuriousAbortProb: fb, Seed: seed ^ 0xA5A5},
					},
					CheckOpts: Options{Strict: true},
				})
			}
		}
	}
	// Hot-key cells: two accounts per node funnel nearly every transaction
	// through the same records, driving the contention manager's FIFO queue
	// and commutative-delta commit paths (on) and the pure-OCC retry storm
	// they replace (off). Both must stay strictly serializable. Half the
	// transaction budget: the off cell retries each conflict many times.
	for _, mode := range []txn.ContentionMode{txn.ContentionOn, txn.ContentionOff} {
		seed := cellSeed(o.Seed, idx)
		idx++
		cells = append(cells, Cell{
			Name: fmt.Sprintf("drtmr hot-key contention=%s", mode),
			Opts: harness.Options{
				System:            harness.SysDrTMR,
				Workload:          harness.WLSmallBank,
				Nodes:             o.Nodes,
				ThreadsPerNode:    o.ThreadsPerNode,
				TxPerWorker:       o.TxPerWorker / 2,
				SBAccountsPerNode: 2,
				SBRemoteProb:      o.RemoteProb,
				Knobs:             txn.Knobs{CoroutinesPerWorker: 4, ContentionMode: mode, Mut: o.Mutations},
				History:           true,
				Deterministic:     true,
				Seed:              seed,
			},
			CheckOpts: Options{Strict: true},
		})
	}
	if o.Kill {
		for _, co := range o.Coroutines {
			seed := cellSeed(o.Seed, idx)
			idx++
			cells = append(cells, Cell{
				Name: fmt.Sprintf("drtmr/r=3 coro=%d KILL node %d", co, o.Nodes-1),
				Opts: harness.Options{
					System:            harness.SysDrTMR3,
					Workload:          harness.WLSmallBank,
					Nodes:             o.Nodes,
					ThreadsPerNode:    o.ThreadsPerNode,
					TxPerWorker:       o.KillTxPerWorker,
					SBAccountsPerNode: o.AccountsPerNode,
					SBRemoteProb:      o.RemoteProb,
					Knobs:             txn.Knobs{CoroutinesPerWorker: co, Mut: o.Mutations},
					History:           true,
					Seed:              seed,
					KillAt:            killAt,
					KillNode:          o.Nodes - 1,
					Lease:             killLease,
					HeartbeatEvery:    killHeartbeat,
				},
				// Kill histories are incomplete by design: the dead
				// machine's in-flight effects are only partially
				// observable, and a promoted backup's record copies carry
				// different incarnations than the dead primary's, so the
				// strict checks would false-flag.
				CheckOpts: Options{Strict: false, Replicated: true},
			})
		}
	}
	// Extra commit protocols sweep a reduced matrix after every drtmr cell
	// (idx keeps counting, so drtmr cell seeds are unchanged by this block).
	// The coroutine × batching grid runs at zero HTM pressure — a protocol
	// like farm has no HTM commit region, so fallback pressure only matters
	// as background noise, covered by one dedicated cell.
	for _, proto := range o.Protocols {
		for _, co := range o.Coroutines {
			for _, batch := range o.Batching {
				seed := cellSeed(o.Seed, idx)
				idx++
				cells = append(cells, Cell{
					Name: fmt.Sprintf("%s coro=%d batch=%v", proto, co, batch),
					Opts: harness.Options{
						System:            harness.SysDrTMR,
						Workload:          harness.WLSmallBank,
						Knobs:             txn.Knobs{Protocol: proto, CoroutinesPerWorker: co, DisableVerbBatching: !batch, Mut: o.Mutations},
						Nodes:             o.Nodes,
						ThreadsPerNode:    o.ThreadsPerNode,
						TxPerWorker:       o.TxPerWorker,
						SBAccountsPerNode: o.AccountsPerNode,
						SBRemoteProb:      o.RemoteProb,
						History:           true,
						Deterministic:     true,
						Seed:              seed,
					},
					CheckOpts: Options{Strict: true},
				})
			}
		}
		// HTM spurious aborts as background noise (execution-phase regions).
		{
			seed := cellSeed(o.Seed, idx)
			idx++
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s coro=4 batch=true htm-noise=0.15", proto),
				Opts: harness.Options{
					System:            harness.SysDrTMR,
					Workload:          harness.WLSmallBank,
					Knobs:             txn.Knobs{Protocol: proto, CoroutinesPerWorker: 4, Mut: o.Mutations},
					Nodes:             o.Nodes,
					ThreadsPerNode:    o.ThreadsPerNode,
					TxPerWorker:       o.TxPerWorker,
					SBAccountsPerNode: o.AccountsPerNode,
					SBRemoteProb:      o.RemoteProb,
					History:           true,
					Deterministic:     true,
					Seed:              seed,
					HTM:               htm.Config{SpuriousAbortProb: 0.15, Seed: seed ^ 0xA5A5},
				},
				CheckOpts: Options{Strict: true},
			})
		}
		for _, mode := range []txn.ContentionMode{txn.ContentionOn, txn.ContentionOff} {
			seed := cellSeed(o.Seed, idx)
			idx++
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s hot-key contention=%s", proto, mode),
				Opts: harness.Options{
					System:            harness.SysDrTMR,
					Workload:          harness.WLSmallBank,
					Knobs:             txn.Knobs{Protocol: proto, CoroutinesPerWorker: 4, ContentionMode: mode, Mut: o.Mutations},
					Nodes:             o.Nodes,
					ThreadsPerNode:    o.ThreadsPerNode,
					TxPerWorker:       o.TxPerWorker / 2,
					SBAccountsPerNode: 2,
					SBRemoteProb:      o.RemoteProb,
					History:           true,
					Deterministic:     true,
					Seed:              seed,
				},
				CheckOpts: Options{Strict: true},
			})
		}
		if o.Kill {
			for _, co := range o.Coroutines {
				seed := cellSeed(o.Seed, idx)
				idx++
				cells = append(cells, Cell{
					Name: fmt.Sprintf("%s/r=3 coro=%d KILL node %d", proto, co, o.Nodes-1),
					Opts: harness.Options{
						System:            harness.SysDrTMR3,
						Workload:          harness.WLSmallBank,
						Knobs:             txn.Knobs{Protocol: proto, CoroutinesPerWorker: co, Mut: o.Mutations},
						Nodes:             o.Nodes,
						ThreadsPerNode:    o.ThreadsPerNode,
						TxPerWorker:       o.KillTxPerWorker,
						SBAccountsPerNode: o.AccountsPerNode,
						SBRemoteProb:      o.RemoteProb,
						History:           true,
						Seed:              seed,
						KillAt:            killAt,
						KillNode:          o.Nodes - 1,
						Lease:             killLease,
						HeartbeatEvery:    killHeartbeat,
					},
					CheckOpts: Options{Strict: false, Replicated: true},
				})
			}
		}
	}
	// Remote read-only transactions: no cell above sets SBReadOnlyFrac, so
	// Balance always reads its home account there. Here half the
	// transactions are Balance and RemoteProb of those read a remote
	// account's two records, which the last READ confirms together (§4.5).
	// Appended after every other cell, so their seeds are unchanged.
	seed := cellSeed(o.Seed, idx)
	cells = append(cells, Cell{
		Name: "read-only frac=0.50 coro=4",
		Opts: harness.Options{
			System:            harness.SysDrTMR,
			Workload:          harness.WLSmallBank,
			Nodes:             o.Nodes,
			ThreadsPerNode:    o.ThreadsPerNode,
			TxPerWorker:       o.TxPerWorker,
			SBAccountsPerNode: o.AccountsPerNode,
			SBRemoteProb:      o.RemoteProb,
			SBReadOnlyFrac:    0.5,
			Knobs:             txn.Knobs{CoroutinesPerWorker: 4, Mut: o.Mutations},
			History:           true,
			Deterministic:     true,
			Seed:              seed,
		},
		CheckOpts: Options{Strict: true},
	})
	return cells
}

// RunCell executes one sweep point and checks its history. Deterministic
// cells replay exactly from the embedded seed; this is also the violating-
// seed replay entry point.
func RunCell(c Cell) CellResult {
	res := harness.Run(c.Opts)
	return CellResult{
		Cell:      c,
		Committed: res.Committed,
		Check:     Check(res.HistoryTxns(), c.CheckOpts),
	}
}

// Torture runs the whole sweep.
func Torture(o TortureOptions) *Report {
	rep := &Report{}
	for _, c := range Cells(o) {
		cr := RunCell(c)
		rep.Cells = append(rep.Cells, cr)
		rep.TxnsChecked += cr.Check.Txns
	}
	return rep
}

// Kill cells' failure-plane timing, on the cluster's virtual clock. A kill
// cell runs 1-3 ms of virtual time without the kill, so the machine dies
// about a third of the way in and the survivors suspect it within the run.
const (
	killAt        = 300 * time.Microsecond
	killLease     = 500 * time.Microsecond
	killHeartbeat = 100 * time.Microsecond
)
