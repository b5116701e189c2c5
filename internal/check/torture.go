package check

import (
	"cmp"
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
	Seed        uint64
	TxPerWorker int
	// Coroutines lists the coroutines-per-worker settings of the knob
	// matrix, one cell per combination with the verb-batching and HTM
	// fallback-pressure settings.
	Coroutines []int
	// Kill adds replicated (3-way) cells that kill a machine mid-run.
	Kill bool
}

// The sweep's fixed sizes.
const (
	tortureNodes      = 3
	tortureThreads    = 2
	tortureAccounts   = 40   // per node: small => hot => real conflicts
	tortureRemoteProb = 0.35 // cross-shard transaction probability
	// killTxPerWorker sizes the kill cells; their failure-plane timing
	// (killAt, killLease, killHeartbeat) is sized to the run it gives.
	killTxPerWorker = 150
)

func (o TortureOptions) defaults() TortureOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TxPerWorker == 0 {
		o.TxPerWorker = 220
	}
	if len(o.Coroutines) == 0 {
		o.Coroutines = []int{1, 4}
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
	Fallbacks uint64 // commits the §6.1 fallback handler ran
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
		fmt.Fprintf(&b, "%-44s seed=%#-18x committed=%-6d fallbacks=%-5d checked=%-6d %s\n",
			c.Cell.Name, c.Cell.Opts.Seed, c.Committed, c.Fallbacks, c.Check.Txns, status)
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
	batching := []bool{true, false} // the knob matrix's verb-batching axis
	var cells []Cell
	// add appends a cell: a deterministic, strictly checked SmallBank run of
	// the default protocol at the sweep's sizes, with the next seed, which
	// set then changes. A cell's seed is its index, so a cell appended
	// after all others leaves every earlier seed unchanged.
	add := func(name string, set func(c *Cell)) {
		c := Cell{Name: name, Opts: harness.Options{
			System:            harness.SysDrTMR,
			Workload:          harness.WLSmallBank,
			Nodes:             tortureNodes,
			ThreadsPerNode:    tortureThreads,
			TxPerWorker:       o.TxPerWorker,
			SBAccountsPerNode: tortureAccounts,
			SBRemoteProb:      tortureRemoteProb,
			History:           true,
			Deterministic:     true,
			Seed:              cellSeed(o.Seed, len(cells)),
		}, CheckOpts: Options{Strict: true}}
		set(&c)
		cells = append(cells, c)
	}
	// hot adds the hot-key cells of proto ("" is drtmr): two accounts per
	// node funnel nearly every transaction through the same records,
	// driving the contention manager's FIFO queue and commutative-delta
	// commit paths (on) and the pure-OCC retry storm they replace (off).
	// Both must stay strictly serializable. Half the transaction budget:
	// the off cell retries each conflict many times.
	hot := func(proto string) {
		for _, mode := range []txn.ContentionMode{txn.ContentionOn, txn.ContentionOff} {
			add(fmt.Sprintf("%s hot-key contention=%s", cmp.Or(proto, "drtmr"), mode), func(c *Cell) {
				c.Opts.Knobs = txn.Knobs{Protocol: proto, CoroutinesPerWorker: 4, ContentionMode: mode}
				c.Opts.TxPerWorker /= 2
				c.Opts.SBAccountsPerNode = 2
			})
		}
	}
	// kill adds, under Kill, proto's replicated cells that kill a machine
	// mid-run. Kill histories are incomplete by design: the dead machine's
	// in-flight effects are only partially observable, and a promoted
	// backup's record copies carry different incarnations than the dead
	// primary's, so the strict checks would false-flag.
	kill := func(proto string) {
		if !o.Kill {
			return
		}
		for _, co := range o.Coroutines {
			add(fmt.Sprintf("%s/r=3 coro=%d KILL node %d", cmp.Or(proto, "drtmr"), co, tortureNodes-1), func(c *Cell) {
				c.Opts.System, c.Opts.Deterministic = harness.SysDrTMR3, false
				c.Opts.Knobs = txn.Knobs{Protocol: proto, CoroutinesPerWorker: co}
				c.Opts.TxPerWorker = killTxPerWorker
				c.Opts.KillAt, c.Opts.KillNode = killAt, tortureNodes-1
				c.Opts.Lease, c.Opts.HeartbeatEvery = killLease, killHeartbeat
				c.CheckOpts = Options{Replicated: true}
			})
		}
	}

	for _, co := range o.Coroutines {
		for _, batch := range batching {
			for _, fb := range []float64{0, 0.15} { // HTM spurious aborts: fallback pressure
				add(fmt.Sprintf("drtmr coro=%d batch=%v fallback=%.2f", co, batch, fb), func(c *Cell) {
					c.Opts.Knobs = txn.Knobs{CoroutinesPerWorker: co, DisableVerbBatching: !batch}
					c.Opts.HTM = htm.Config{SpuriousAbortProb: fb, Seed: c.Opts.Seed ^ 0xA5A5}
				})
			}
		}
	}
	hot("")
	kill("")
	// Extra commit protocols sweep a reduced matrix after every drtmr cell,
	// so drtmr cell seeds are unchanged by it. The coroutine × batching grid
	// runs at zero HTM pressure — a protocol like farm has no HTM commit
	// region, so fallback pressure only matters as background noise,
	// covered by one dedicated cell.
	for _, proto := range []string{"farm"} {
		for _, co := range o.Coroutines {
			for _, batch := range batching {
				add(fmt.Sprintf("%s coro=%d batch=%v", proto, co, batch), func(c *Cell) {
					c.Opts.Knobs = txn.Knobs{Protocol: proto, CoroutinesPerWorker: co, DisableVerbBatching: !batch}
				})
			}
		}
		// HTM spurious aborts as background noise (execution-phase regions).
		add(fmt.Sprintf("%s coro=4 batch=true htm-noise=0.15", proto), func(c *Cell) {
			c.Opts.Knobs = txn.Knobs{Protocol: proto, CoroutinesPerWorker: 4}
			c.Opts.HTM = htm.Config{SpuriousAbortProb: 0.15, Seed: c.Opts.Seed ^ 0xA5A5}
		})
		hot(proto)
		kill(proto)
	}
	// Remote read-only transactions: no cell above sets SBReadOnlyFrac, so
	// Balance always reads its home account there. Here half the
	// transactions are Balance and RemoteProb of those read a remote
	// account's two records, which the last READ confirms together (§4.5).
	add("read-only frac=0.50 coro=4", func(c *Cell) {
		c.Opts.SBReadOnlyFrac = 0.5
		c.Opts.Knobs.CoroutinesPerWorker = 4
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
		Fallbacks: res.Fallbacks,
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
