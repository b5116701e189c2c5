package harness

import (
	"fmt"
	"io"
	"time"

	"drtmr/internal/obs"
	"drtmr/internal/txn"
)

// Figure experiment drivers, one per table/figure of §7, listed in Figures.
// Each returns a Table whose rows mirror the paper's series; Fprint renders
// it. Scale sizes the run: Smoke keeps `go test -bench` fast, Full is the
// cmd/drtmr-bench default.

// Scale selects run size.
type Scale int

// Scales.
const (
	Smoke Scale = iota
	Full
)

func (s Scale) txPerWorker() int {
	if s == Smoke {
		return 60
	}
	return 400
}

// Table is a rendered experiment: named columns, one row per x value.
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one sweep point.
type Row struct {
	X      float64
	XName  string
	Values []float64
}

// addBreakdown appends r's commit-phase latency breakdown (the doorbell
// batching instrumentation; see Result.CommitBreakdown) as a table note.
func (t *Table) addBreakdown(label string, r Result) {
	if s := r.CommitBreakdown(); s != "" {
		t.Notes = append(t.Notes, label+" "+s)
	}
}

// Fprint renders the table.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	fmt.Fprintf(w, "%-14s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		name := r.XName
		if name == "" {
			name = fmt.Sprintf("%g", r.X)
		}
		fmt.Fprintf(w, "%-14s", name)
		for _, v := range r.Values {
			fmt.Fprintf(w, " %14.0f", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Figure is one entry of the evaluation: the -fig value that selects it
// (also its sub-benchmark name under BenchmarkFig), a one-line description for
// the usage text, and the experiment.
type Figure struct {
	Name string
	Doc  string
	Run  func(Scale) Table
}

// Figures lists every figure and table the harness reproduces, in the order
// "-fig all" runs them. This is the only list: cmd/drtmr-bench (flag lookup,
// usage text) and bench_test.go (one sub-benchmark each) iterate it.
var Figures = []Figure{
	{"10", "Fig 10: TPC-C vs machines, all systems", fig10.run},
	{"11", "Fig 11: TPC-C vs threads; DrTM's big HTM regions stop scaling first", fig11.run},
	{"12", "Fig 12: TPC-C logical-node scale-out", fig12.run},
	{"13", "Fig 13: SmallBank vs machines", figSmallBank(13, SysDrTMR, true).run},
	{"14", "Fig 14: SmallBank vs threads", figSmallBank(14, SysDrTMR, false).run},
	{"15", "Fig 15: SmallBank vs machines, 3-way replication (NIC-bound)", figSmallBank(15, SysDrTMR3, true).run},
	{"16", "Fig 16: SmallBank vs threads, 3-way replication (plateaus at the NIC)", figSmallBank(16, SysDrTMR3, false).run},
	{"17", "Fig 17: TPC-C vs cross-warehouse access probability", fig17.run},
	{"18", "Fig 18: TPC-C high contention, one warehouse per machine", fig18.run},
	{"19", "Fig 19: TPC-C vs database size", fig19.run},
	{"20", "Fig 20: recovery after a machine is killed, on the cluster's virtual clock", func(s Scale) Table { return RecoveryTable(Run(RecoveryOptions(s))) }},
	{"6t", "Table 6: replication's throughput and latency cost", Table6},
	{"silo", "§7.2: per-machine throughput, Silo vs one DrTM+R machine", figSilo.run},
	{"coro", "coroutine overlap sweep: SmallBank vs in-flight transactions per worker", figCoro.run},
	{"lat", "latency CDF: virtual commit-latency percentiles", FigLatencyCDF},
	{"tail", "contention-manager tail sweep: hot-record p99, manager on vs off", FigContentionTail},
	{"proto", "commit-protocol matrix: drtmr vs farm", FigProtocolMatrix},
}

// sweep is a figure as data: one Run per (swept value, column) cell, each
// cell's throughput — new-order/s for TPC-C, total/s for SmallBank — in the
// table. Two-element arrays are indexed by Scale.
type sweep struct {
	title, xlabel string
	columns       []string // nil = the systems' names
	systems       []System // the system of each column; nil = DrTM+R in all
	notes         []string
	xs            [2][]float64 // the swept values
	base          [2]Options   // what every cell shares
	// cell sets what varies: o starts as base with the column's system and
	// the scale's TxPerWorker filled in.
	cell func(o *Options, x float64, col int)
	// padReplicated runs 3-way replicated cells on at least 3 machines: the
	// paper replicates to standby machines below 3, modelled here by
	// running 3 nodes.
	padReplicated bool
	// breakdown labels the commit-breakdown note, taken from the last row's
	// run in column breakdownCol ("" = no note).
	breakdown    string
	breakdownCol int
}

func (f sweep) run(scale Scale) Table {
	t := Table{Title: f.title, XLabel: f.xlabel, Columns: f.columns, Notes: append([]string(nil), f.notes...)}
	if t.Columns == nil {
		for _, sys := range f.systems {
			t.Columns = append(t.Columns, sys.String())
		}
	}
	var noted Result
	for _, x := range f.xs[scale] {
		row := Row{X: x}
		for col := range t.Columns {
			o := f.base[scale]
			if f.systems != nil {
				o.System = f.systems[col]
			}
			o.TxPerWorker = scale.txPerWorker()
			f.cell(&o, x, col)
			if f.padReplicated && o.System == SysDrTMR3 {
				o.Nodes = max(o.Nodes, 3)
			}
			r := Run(o)
			if col == f.breakdownCol {
				noted = r
			}
			if o.Workload == WLTPCC {
				row.Values = append(row.Values, r.NewOrderTPS)
			} else {
				row.Values = append(row.Values, r.TotalTPS)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	if f.breakdown != "" {
		t.addBreakdown(f.breakdown, noted)
	}
	return t
}

// tpccBase is what the TPC-C sweeps share: nodes x threads, one warehouse
// per thread (0 = the dimension the figure sweeps).
func tpccBase(nodes, threads int) Options {
	return Options{Workload: WLTPCC, Nodes: nodes, ThreadsPerNode: threads, WarehousesPerNode: threads}
}

var (
	machines = [2][]float64{{1, 3}, {1, 2, 3, 4, 5, 6}}
	threads  = [2][]float64{{1, 4}, {1, 2, 4, 8, 12, 16}}
)

var fig10 = sweep{
	title:   "Fig 10: TPC-C new-order throughput vs machines (8 threads/machine)",
	xlabel:  "machines",
	systems: []System{SysDrTMR, SysDrTMR3, SysDrTM, SysCalvin},
	xs:      machines,
	base:    [2]Options{tpccBase(0, 2), tpccBase(0, 8)},
	cell:    func(o *Options, x float64, _ int) { o.Nodes = int(x) },

	padReplicated: true,
	breakdown:     "DrTM+R (largest sweep point)",
}

// Fig 11: DrTM's big HTM regions degrade beyond ~8 threads.
var fig11 = sweep{
	title:   "Fig 11: TPC-C new-order throughput vs threads (6 machines)",
	xlabel:  "threads",
	systems: []System{SysDrTMR, SysDrTMR3, SysDrTM},
	xs:      threads,
	base:    [2]Options{tpccBase(2, 0), tpccBase(6, 0)},
	cell:    func(o *Options, x float64, _ int) { o.ThreadsPerNode, o.WarehousesPerNode = int(x), int(x) },

	breakdown: "DrTM+R (most threads)",
}

// Fig 12: the paper emulates up to 24 logical nodes on 6 machines; every
// node here is logical anyway, so this is the same experiment at face value.
var fig12 = sweep{
	title:   "Fig 12: TPC-C new-order throughput vs logical nodes (4 threads each)",
	xlabel:  "logical-nodes",
	columns: []string{"DrTM+R"},
	notes:   []string{"every simulated machine is a logical node; cross-node interaction uses the RDMA protocol as in the paper's emulation"},
	xs:      [2][]float64{{2, 4}, {6, 12, 18, 24}},
	base:    [2]Options{tpccBase(0, 4), tpccBase(0, 4)},
	cell:    func(o *Options, x float64, _ int) { o.Nodes = int(x) },

	breakdown: "DrTM+R (most nodes)",
}

// figSmallBank is Figs 13-16: SmallBank throughput at three remote-access
// probabilities, swept over threads (6 machines) or over machines (8 threads
// each), with or without 3-way replication.
func figSmallBank(fig int, sys System, byMachines bool) sweep {
	sb := func(nodes, threads, accounts int) Options {
		return Options{System: sys, Workload: WLSmallBank, Nodes: nodes, ThreadsPerNode: threads, SBAccountsPerNode: accounts}
	}
	f := sweep{
		title:   fmt.Sprintf("Fig %d: SmallBank throughput vs threads (%s, 6 machines)", fig, sys),
		xlabel:  "threads",
		columns: []string{"remote=1%", "remote=5%", "remote=10%"},
		xs:      threads,
		base:    [2]Options{sb(2, 0, 1000), sb(6, 0, 10000)},

		padReplicated: true,
		breakdown:     sys.String() + " (largest sweep point, remote=10%)",
		breakdownCol:  2,
	}
	vary := func(o *Options, x int) { o.ThreadsPerNode = x }
	if byMachines {
		f.title = fmt.Sprintf("Fig %d: SmallBank throughput vs machines (%s, 8 threads)", fig, sys)
		f.xlabel, f.xs = "machines", machines
		f.base = [2]Options{sb(0, 2, 1000), sb(0, 8, 10000)}
		vary = func(o *Options, x int) { o.Nodes = x }
	}
	f.cell = func(o *Options, x float64, col int) {
		vary(o, int(x))
		o.SBRemoteProb = []float64{0.01, 0.05, 0.10}[col]
	}
	return f
}

var fig17 = sweep{
	title:   "Fig 17: TPC-C new-order throughput vs cross-warehouse access %, 6 machines x 8 threads",
	xlabel:  "cross-wh %",
	systems: []System{SysDrTMR, SysDrTMR3, SysDrTM},
	xs:      [2][]float64{{1, 50}, {1, 5, 10, 25, 50, 100}},
	base:    [2]Options{tpccBase(2, 2), tpccBase(6, 8)},
	cell:    func(o *Options, x float64, _ int) { o.CrossWarehouseNO = x / 100 },

	padReplicated: true,
	breakdown:     "DrTM+R (highest cross-warehouse %)",
}

var fig18 = sweep{
	title:   "Fig 18: TPC-C new-order throughput, 1 warehouse/machine (high contention), 6 machines",
	xlabel:  "threads",
	systems: []System{SysDrTMR, SysDrTM},
	xs:      threads,
	// All of a machine's threads share its one warehouse.
	base: [2]Options{{Workload: WLTPCC, Nodes: 2, WarehousesPerNode: 1}, {Workload: WLTPCC, Nodes: 6, WarehousesPerNode: 1}},
	cell: func(o *Options, x float64, _ int) { o.ThreadsPerNode = int(x) },

	breakdown: "DrTM+R (most threads)",
}

// Fig 19 sweeps the database size; x is the cluster's warehouse total.
var fig19 = sweep{
	title:   "Fig 19: TPC-C new-order throughput vs warehouses (6 machines x 8 threads)",
	xlabel:  "warehouses",
	systems: []System{SysDrTMR, SysDrTMR3},
	xs:      [2][]float64{{4, 16}, {48, 96, 192, 288, 384}},
	base:    [2]Options{tpccBase(2, 2), tpccBase(6, 8)},
	cell:    func(o *Options, x float64, _ int) { o.WarehousesPerNode = int(x) / o.Nodes },
}

// figSilo is §7.2's per-machine efficiency check.
var figSilo = sweep{
	title:   "§7.2: per-machine new-order throughput, Silo vs DrTM+R (1 machine)",
	xlabel:  "threads",
	columns: []string{"DrTM+R(1 node)", "Silo"},
	systems: []System{SysDrTMR, SysSilo},
	xs:      [2][]float64{{2}, {8, 16}},
	base:    [2]Options{tpccBase(1, 0), tpccBase(1, 0)},
	cell:    func(o *Options, x float64, _ int) { o.ThreadsPerNode, o.WarehousesPerNode = int(x), int(x) },
}

// figCoro — coroutine scheduler sweep (ours, not in the paper): SmallBank
// throughput vs in-flight transaction contexts per worker
// (txn.Knobs.CoroutinesPerWorker). N=1 is the one-transaction-per-thread
// ablation; larger N overlaps the fabric round-trips that doorbell batching
// alone cannot hide. The gain is largest when most commits are distributed
// (high remote probability) and saturates once per-verb NIC queueing or
// local CPU work dominates.
var figCoro = sweep{
	title:   "Coroutine overlap: SmallBank throughput vs coroutines/worker (DrTM+R)",
	xlabel:  "coroutines",
	columns: []string{"remote=10%", "remote=50%"},
	xs:      [2][]float64{{1, 2, 4, 8}, {1, 2, 4, 8}},
	base: [2]Options{
		{Workload: WLSmallBank, Nodes: 3, ThreadsPerNode: 2},
		{Workload: WLSmallBank, Nodes: 6, ThreadsPerNode: 8},
	},
	cell: func(o *Options, x float64, col int) {
		o.SBRemoteProb = []float64{0.10, 0.50}[col]
		o.CoroutinesPerWorker = int(x)
	},
	breakdown:    "DrTM+R (8 coroutines, remote=50%)",
	breakdownCol: 1,
}

// FigProtocolMatrix — commit-protocol head-to-head (ours, not in the paper):
// DrTM+R's HTM pipeline vs the FaRM-style one-sided log-append protocol on
// replicated SmallBank, swept over the distributed-transaction probability
// and the read-only share of the mix. The protocols differ most on records
// read but not written: drtmr spends 3 one-sided verbs per such record (C.1
// lock CAS, C.2 validation READ, C.6 unlock CAS) where farm spends 1 (the
// validation READ) — the ro-verbs columns report the measured count per 100
// transactions. The wakeup columns report CPU deliveries at machines that
// participate in a commit ONLY as read sources; both protocols must measure
// zero (a pure reader is never woken), and the figure reports the counter
// rather than asserting the claim.
func FigProtocolMatrix(scale Scale) Table {
	t := Table{
		Title:  "Protocol matrix: DrTM+R vs FaRM-style commit (SmallBank, r=3)",
		XLabel: "remote/ro",
		Columns: []string{
			"drtmr tps", "farm tps",
			"drtmr p99us", "farm p99us",
			"drtmr rov/100", "farm rov/100",
			"drtmr wake", "farm wake",
		},
	}
	nodes, threads, accts := 6, 8, 10000
	remotes := []float64{0.1, 0.5, 1.0}
	roShares := []float64{0.15, 0.5, 0.9}
	if scale == Smoke {
		nodes, threads, accts = 3, 2, 1000
		remotes = []float64{0.5}
		roShares = []float64{0.15, 0.9}
	}
	run := func(proto string, remote, ro float64) Result {
		return Run(Options{
			System: SysDrTMR3, Workload: WLSmallBank,
			Knobs: txn.Knobs{Protocol: proto},
			Nodes: nodes, ThreadsPerNode: threads,
			SBAccountsPerNode: accts,
			SBRemoteProb:      remote,
			SBReadOnlyFrac:    ro,
			TxPerWorker:       scale.txPerWorker(),
		})
	}
	perTx := func(v uint64, r Result) float64 {
		if r.Committed == 0 {
			return 0
		}
		return float64(v) / float64(r.Committed)
	}
	var lastD, lastF Result
	for _, remote := range remotes {
		for _, ro := range roShares {
			d := run("drtmr", remote, ro)
			f := run("farm", remote, ro)
			lastD, lastF = d, f
			t.Rows = append(t.Rows, Row{
				XName: fmt.Sprintf("r=%g ro=%g", remote, ro),
				Values: []float64{
					d.TotalTPS, f.TotalTPS,
					d.P99Us, f.P99Us,
					perTx(d.ROVerbs, d) * 100, perTx(f.ROVerbs, f) * 100,
					float64(d.ROWakeups), float64(f.ROWakeups),
				},
			})
		}
	}
	t.addBreakdown("drtmr (largest sweep point)", lastD)
	t.addBreakdown("farm (largest sweep point)", lastF)
	return t
}

// Table6 — replication impact on TPC-C throughput and latency (6 machines x
// 8 threads): the paper reports <=41% throughput loss before the network
// bottleneck.
func Table6(scale Scale) Table {
	t := Table{
		Title:   "Table 6: 3-way replication impact, TPC-C 6 machines x 8 threads",
		XLabel:  "metric",
		Columns: []string{"DrTM+R", "DrTM+R/r=3", "overhead %"},
	}
	nodes, threads := 6, 8
	if scale == Smoke {
		nodes, threads = 3, 2
	}
	run := func(sys System) Result {
		return Run(Options{
			System: sys, Workload: WLTPCC,
			Nodes: nodes, ThreadsPerNode: threads,
			WarehousesPerNode: threads,
			TxPerWorker:       scale.txPerWorker(),
		})
	}
	a, b := run(SysDrTMR), run(SysDrTMR3)
	over := (1 - b.NewOrderTPS/a.NewOrderTPS) * 100
	t.Rows = append(t.Rows,
		Row{XName: "new-order/s", Values: []float64{a.NewOrderTPS, b.NewOrderTPS, over}},
		Row{XName: "latency us", Values: []float64{a.AvgLatencyUs, b.AvgLatencyUs,
			(b.AvgLatencyUs/a.AvgLatencyUs - 1) * 100}},
		Row{XName: "p50 us", Values: []float64{a.P50Us, b.P50Us,
			(b.P50Us/a.P50Us - 1) * 100}},
		Row{XName: "p99 us", Values: []float64{a.P99Us, b.P99Us,
			(b.P99Us/a.P99Us - 1) * 100}},
	)
	if s := a.AbortSummary(3); s != "" {
		t.Notes = append(t.Notes, "DrTM+R top aborts: "+s)
	}
	if s := b.AbortSummary(3); s != "" {
		t.Notes = append(t.Notes, "DrTM+R/r=3 top aborts: "+s)
	}
	return t
}

// FigLatencyCDF — virtual commit-latency distribution (ours, not in the
// paper): percentile sweep of DrTM+R latency at the default configuration
// for SmallBank and TPC-C, from the per-type log-bucketed histograms the
// harness now records (quantile resolution ≈3%; see internal/obs). Notes
// carry the per-transaction-type p50/p99 split and the abort-attribution
// summary.
func FigLatencyCDF(scale Scale) Table {
	t := Table{
		Title:   "Latency CDF: DrTM+R virtual commit latency percentiles (default config)",
		XLabel:  "percentile",
		Columns: []string{"SmallBank us", "TPC-C us"},
	}
	nodes, threads := 6, 8
	if scale == Smoke {
		nodes, threads = 3, 2
	}
	run := func(wl Workload) Result {
		return Run(Options{
			System: SysDrTMR, Workload: wl,
			Nodes: nodes, ThreadsPerNode: threads,
			WarehousesPerNode: threads,
			TxPerWorker:       scale.txPerWorker(),
		})
	}
	sb, tc := run(WLSmallBank), run(WLTPCC)
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999} {
		t.Rows = append(t.Rows, Row{
			X:     q * 100,
			XName: fmt.Sprintf("p%g", q*100),
			Values: []float64{
				sb.Lat.All().Quantile(q) / 1e3,
				tc.Lat.All().Quantile(q) / 1e3,
			},
		})
	}
	for _, r := range []struct {
		label string
		res   Result
	}{{"smallbank", sb}, {"tpcc", tc}} {
		for i := range r.res.Lat.H {
			h := &r.res.Lat.H[i]
			if h.Count() == 0 {
				continue
			}
			t.Notes = append(t.Notes, fmt.Sprintf("%s %s: n=%d p50=%.1fus p99=%.1fus",
				r.label, r.res.Lat.Names[i], h.Count(),
				h.Quantile(0.50)/1e3, h.Quantile(0.99)/1e3))
		}
		if s := r.res.AbortSummary(3); s != "" {
			t.Notes = append(t.Notes, r.label+" top aborts: "+s)
		}
	}
	return t
}

// FigContentionTail — hot-record tail latency with the contention manager
// on vs off (ours, not in the paper): SmallBank sweep over the hot-set
// fraction (smaller fraction = sharper Zipfian skew = more validate-abort
// retries per hot record), plus the headline "tpcc-default" row — the
// default TPC-C configuration whose p99 the manager is meant to tame.
// Columns report p50/p99 virtual latency and throughput for both modes;
// notes carry the hot-key queue-wait distribution and the top abort keys.
func FigContentionTail(scale Scale) Table {
	t := Table{
		Title:   "Contention tail: hot-record p99 with contention manager on/off",
		XLabel:  "workload",
		Columns: []string{"on p50us", "on p99us", "off p50us", "off p99us", "on tps", "off tps"},
	}
	nodes, threads, accts := 6, 8, 10000
	if scale == Smoke {
		nodes, threads, accts = 3, 2, 1000
	}
	run := func(wl Workload, hot float64, mode txn.ContentionMode) Result {
		return Run(Options{
			System: SysDrTMR, Workload: wl,
			Nodes: nodes, ThreadsPerNode: threads,
			WarehousesPerNode: threads,
			SBAccountsPerNode: accts,
			SBHotFraction:     hot,
			Knobs:             txn.Knobs{ContentionMode: mode},
			TxPerWorker:       scale.txPerWorker(),
		})
	}
	note := func(label string, r Result) {
		if q := &r.QueueWait; q.Count() > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s queue waits: n=%d p50=%.1fus p99=%.1fus",
				label, q.Count(), q.Quantile(0.50)/1e3, q.Quantile(0.99)/1e3))
		}
		if s := r.AbortSummary(3); s != "" {
			t.Notes = append(t.Notes, label+" top aborts: "+s)
		}
	}
	addRow := func(name string, wl Workload, hot float64) {
		on := run(wl, hot, txn.ContentionOn)
		off := run(wl, hot, txn.ContentionOff)
		t.Rows = append(t.Rows, Row{
			XName: name,
			Values: []float64{
				on.Lat.All().Quantile(0.50) / 1e3, on.Lat.All().Quantile(0.99) / 1e3,
				off.Lat.All().Quantile(0.50) / 1e3, off.Lat.All().Quantile(0.99) / 1e3,
				on.TotalTPS, off.TotalTPS,
			},
		})
		note(name+" on", on)
		note(name+" off", off)
	}
	fracs := []float64{0.25, 0.04, 0.005}
	if scale == Smoke {
		fracs = []float64{0.04}
	}
	for _, hot := range fracs {
		addRow(fmt.Sprintf("sb-hot=%g", hot), WLSmallBank, hot)
	}
	addRow("tpcc-default", WLTPCC, 0)
	return t
}

// RecoveryOptions is Fig 20's run: TPC-C with 3-way replication on 3 nodes x
// 2 threads, the last machine killed about a third of the way into the run,
// at the paper's 10ms lease (the cluster default). Smoke scale loads one
// warehouse per node, half the load's cost.
func RecoveryOptions(scale Scale) Options {
	o := Options{
		System: SysDrTMR3, Workload: WLTPCC,
		Nodes: 3, ThreadsPerNode: 2, WarehousesPerNode: 1,
		TxPerWorker: 700, KillAt: 4 * time.Millisecond, KillNode: 2,
	}
	if scale == Full {
		o.WarehousesPerNode, o.TxPerWorker, o.KillAt = 2, 6000, 36*time.Millisecond
	}
	return o
}

// RecoveryTable is Fig 20's table: when the survivors of a kill run suspect
// the dead machine, commit the new configuration and finish recovery, in
// microseconds after the kill, and the throughput regained as a percentage
// of the pre-kill rate.
func RecoveryTable(r Result) Table {
	t := Table{
		Title:   "Fig 20: recovery after killing 1 of 3 machines (TPC-C, r=3, 10ms lease), us after the kill in virtual time",
		XLabel:  "milestone",
		Columns: []string{"DrTM+R/r=3"},
		Notes:   []string{"paper: suspected at lease expiry (10 ms), recovery done ≈40 ms after the kill, ≈80 % of throughput regained"},
	}
	rc := r.Recovery
	killed, ok := rc.At(obs.MilestoneKilled)
	if !ok {
		t.Notes = append(t.Notes, "the run ended before the kill instant")
		return t
	}
	for _, kind := range []uint8{obs.MilestoneSuspect, obs.MilestoneConfigCommit, obs.MilestoneRecoveryDone} {
		if at, ok := rc.At(kind); ok {
			t.Rows = append(t.Rows, Row{XName: obs.MilestoneName(kind), Values: []float64{float64(at-killed) / 1e3}})
		}
	}
	if rc.PreTPS > 0 {
		t.Rows = append(t.Rows, Row{XName: "regained %", Values: []float64{rc.PostTPS / rc.PreTPS * 100}})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("killed at %.1f ms; %.0f txns/s before the kill, %.0f after recovery",
		float64(killed)/1e6, rc.PreTPS, rc.PostTPS))
	return t
}
