// Package harness drives the paper's experiments: it builds a simulated
// cluster for a chosen system (DrTM+R with or without replication, DrTM,
// Calvin, Silo), loads a workload (TPC-C or SmallBank), runs worker threads
// for a fixed transaction count, and reports throughput in virtual time —
// committed transactions divided by the slowest worker's virtual elapsed
// time (see internal/sim for why virtual time, not wall-clock, is the right
// denominator for a simulated cluster).
package harness

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"drtmr/internal/bench/smallbank"
	"drtmr/internal/bench/tpcc"
	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/obs"
	"drtmr/internal/rdma"
	"drtmr/internal/txn"
)

// System selects the system under test.
type System int

// Systems.
const (
	SysDrTMR  System = iota // DrTM+R, no replication
	SysDrTMR3               // DrTM+R with 3-way replication
	SysDrTM                 // DrTM baseline (HTM+2PL, a-priori sets)
	SysCalvin               // Calvin baseline (deterministic, IPoIB)
	SysSilo                 // Silo baseline (single machine)
)

func (s System) String() string {
	switch s {
	case SysDrTMR:
		return "DrTM+R"
	case SysDrTMR3:
		return "DrTM+R/r=3"
	case SysDrTM:
		return "DrTM"
	case SysCalvin:
		return "Calvin"
	case SysSilo:
		return "Silo"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Workload selects the benchmark.
type Workload int

// Workloads.
const (
	WLTPCC Workload = iota
	WLSmallBank
)

// Options configures one experiment run.
type Options struct {
	System   System
	Workload Workload

	Nodes          int
	ThreadsPerNode int
	TxPerWorker    int

	// TPC-C knobs.
	WarehousesPerNode int
	CrossWarehouseNO  float64 // new-order remote supply probability
	CrossWarehousePay float64 // payment remote customer probability

	// SmallBank knobs.
	SBAccountsPerNode int
	SBRemoteProb      float64
	// SBHotFraction overrides the hot-set fraction of the account space
	// (0 keeps the workload default 0.04). FigContentionTail sweeps it as
	// the skew knob: smaller fraction = hotter records.
	SBHotFraction float64
	// SBReadOnlyFrac overrides the read-only (Balance) share of the
	// SmallBank mix (0 keeps the default mix). FigProtocolMatrix sweeps it:
	// read-only share is exactly where the commit protocols differ most.
	SBReadOnlyFrac float64

	// Knobs are the engine's tunables (commit protocol, coroutines per
	// worker, ablations, contention manager, mutation switches; see
	// txn.Knobs for each), handed as they are to every engine of a DrTM+R
	// system. Of the baselines only DrTM reads one: DisableVerbBatching
	// prices its doorbells as DrTM+R's.
	txn.Knobs

	// Trace enables per-worker event tracing (DrTM+R systems): each worker
	// records txn/phase/HTM/doorbell/yield events into a preallocated ring
	// and Result.Trace carries the recorders for obs.WriteTrace export.
	Trace bool
	// TraceEventsPerWorker sizes each worker's ring (0 = obs.DefaultCapacity).
	// Rings overwrite oldest-first, so an undersized ring keeps the tail of
	// the run rather than failing.
	TraceEventsPerWorker int

	// History records every committed transaction's versioned read/write
	// sets (DrTM+R systems): Result.History carries one recorder per worker
	// and Result.HistoryTxns() the merged history for internal/check.
	History bool

	// Deterministic serializes every worker through a seeded schedule gate:
	// exactly one worker runs between scheduling points (transaction start,
	// doorbell, backoff), and the gate's seeded RNG picks who runs next. The
	// run's interleaving — and therefore its entire Result — becomes a pure
	// function of Options, which is what lets a torture-harness violation be
	// replayed from its seed. Requires an unreplicated system and no kill;
	// Run panics otherwise. The failure plane never ticks under the gate.
	Deterministic bool

	// KillAt, when >0, kills machine KillNode at that virtual instant of the
	// cluster's clock (cluster.Cluster.Report): the first transaction begin
	// or backoff of any worker that crosses it. The victim's remaining
	// transaction budget resumes on its shard's promoted primary from the
	// recovery-done instant, and Result.Recovery reports the milestones.
	// Needs a replicated system. Lease and HeartbeatEvery set the failure
	// detector's timing (0 = the cluster's: the paper's 10ms lease, 2ms
	// period).
	KillAt         time.Duration
	KillNode       int
	Lease          time.Duration
	HeartbeatEvery time.Duration

	HTM  htm.Config
	Seed uint64
}

// Defaults fills unset fields with the paper's defaults.
func (o Options) Defaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 6
	}
	if o.ThreadsPerNode == 0 {
		o.ThreadsPerNode = 8
	}
	if o.TxPerWorker == 0 {
		o.TxPerWorker = 400
	}
	if o.WarehousesPerNode == 0 {
		o.WarehousesPerNode = o.ThreadsPerNode
	}
	if o.CrossWarehouseNO == 0 {
		o.CrossWarehouseNO = 0.01
	}
	if o.CrossWarehousePay == 0 {
		o.CrossWarehousePay = 0.15
	}
	if o.SBAccountsPerNode == 0 {
		o.SBAccountsPerNode = 10000
	}
	if o.SBRemoteProb == 0 {
		o.SBRemoteProb = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Result is one experiment measurement.
type Result struct {
	System   System
	Workload Workload

	NewOrders uint64 // TPC-C only: the paper's headline metric

	// VirtualSec is the slowest worker's virtual clock (the throughput
	// denominator), WorkerVirtualSec the sum of every worker's.
	VirtualSec       float64
	WorkerVirtualSec float64
	TotalTPS         float64
	NewOrderTPS      float64
	AbortRate        float64
	AvgLatencyUs     float64

	// Virtual commit-latency percentiles from Lat (DrTM+R systems; zero
	// when the run recorded no histogram). AvgLatencyUs is the histogram
	// mean when Lat is present, the back-computation WorkerVirtualSec /
	// Committed otherwise.
	P50Us  float64
	P90Us  float64
	P99Us  float64
	P999Us float64

	// Lat holds the per-transaction-type virtual commit-latency histograms
	// (including retries; successful transactions only), merged across all
	// workers. Nil for baseline systems without the instrumented engine.
	Lat *obs.TypedHist

	// Stats is every engine counter merged across all workers (txn.Stats
	// documents each): commits, fallbacks, the per-phase verb / doorbell /
	// latency counters CommitBreakdown renders, the abort matrix, coroutine
	// overlap, hot-key gate and backoff counters. Baseline systems fill
	// Committed, Fallbacks and Retries only.
	txn.Stats
	// Yields is Stats.CoYields under a second name, kept because benchmark/
	// (frozen in this change) reads Result.Yields in inproc.go and
	// Worker.Stats.CoYields in probes.go. The next benchmark-only change
	// should pick one name and drop this field.
	Yields uint64

	// Trace carries each worker's event recorder when Options.Trace was
	// set; export with obs.WriteTrace(w, r.Trace, TraceNames()).
	Trace []*obs.Recorder

	// History carries each worker's transaction-history recorder when
	// Options.History was set; HistoryTxns() merges them for internal/check.
	History []*obs.HistoryRecorder

	// Recovery is the failure timeline of a run that killed a machine (nil
	// otherwise).
	Recovery *Recovery
}

// Recovery is what a run that kills a machine reports about it: the failure
// plane's milestones, in virtual ns on the cluster's clock, and the
// throughput around them.
type Recovery struct {
	Milestones []cluster.Milestone
	// PreTPS is committed transactions per virtual second before the kill;
	// PostTPS from recovery-done until the first worker ran out of budget.
	PreTPS, PostTPS float64
}

// At returns the instant of the first milestone of kind (an obs milestone
// code), and whether there was one.
func (rc *Recovery) At(kind uint8) (int64, bool) {
	for _, ms := range rc.Milestones {
		if ms.Kind == kind {
			return ms.At, true
		}
	}
	return 0, false
}

// newRecovery reads a kill run's throughput around its milestones from each
// worker's commit instants and final clock.
func newRecovery(ms []cluster.Milestone, commits [][]int64, ends []int64) *Recovery {
	rc := &Recovery{Milestones: ms}
	killed, ok := rc.At(obs.MilestoneKilled)
	done, ok2 := rc.At(obs.MilestoneRecoveryDone)
	if !ok || !ok2 {
		return rc
	}
	end := slices.Min(ends)
	var pre, post int
	for _, cs := range commits {
		for _, t := range cs {
			switch {
			case t < killed:
				pre++
			case t >= done && t < end:
				post++
			}
		}
	}
	rc.PreTPS = float64(pre) / float64(killed) * 1e9
	if end > done {
		rc.PostTPS = float64(post) / float64(end-done) * 1e9
	}
	return rc
}

// CommitBreakdown renders the per-phase commit-latency breakdown: average
// one-sided verbs, doorbell batches and virtual microseconds per committed
// transaction, then coroutine overlap and the retry backoffs, in total and
// by each site that took one. Empty for systems without the instrumented
// pipeline.
func (r Result) CommitBreakdown() string {
	if r.Committed == 0 {
		return ""
	}
	var parts []string
	for p := txn.CommitPhase(0); p < txn.NumPhases; p++ {
		ps := r.Phases[p]
		if ps.Batches == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.2f verbs in %.2f doorbells, %.2fus",
			p,
			float64(ps.Verbs)/float64(r.Committed),
			float64(ps.Batches)/float64(r.Committed),
			float64(ps.Nanos)/float64(r.Committed)/1e3))
	}
	if len(parts) == 0 {
		return ""
	}
	if r.CoYields > 0 {
		parts = append(parts, fmt.Sprintf("coroutine overlap %.1f yields, %.2fus hidden, %.2fus stalled, peak %d in-flight/worker, %.3f idle waits (%d gave up)",
			float64(r.CoYields)/float64(r.Committed),
			float64(r.OverlapNanos)/float64(r.Committed)/1e3,
			float64(r.StallNanos)/float64(r.Committed)/1e3,
			r.MaxInFlight,
			float64(r.IdleWaits)/float64(r.Committed), r.IdleGiveUps))
	}
	if r.Backoffs > 0 {
		parts = append(parts, fmt.Sprintf("backoff %.2f taken, %.2fus asked, %.2fus stalled",
			float64(r.Backoffs)/float64(r.Committed),
			float64(r.BackoffNanos)/float64(r.Committed)/1e3,
			float64(r.BackoffStallNanos)/float64(r.Committed)/1e3))
		for site := txn.BackoffSite(0); site < txn.NumBackoffSites; site++ {
			b := r.BackoffSites[site]
			if b.Taken == 0 {
				continue
			}
			parts = append(parts, fmt.Sprintf("backoff at %s %.2f taken, %.2fus stalled", site,
				float64(b.Taken)/float64(r.Committed),
				float64(b.StallNanos)/float64(r.Committed)/1e3))
		}
	}
	return "commit breakdown per txn: " + strings.Join(parts, "; ")
}

func (r Result) String() string {
	lat := fmt.Sprintf("lat=%6.1fus", r.AvgLatencyUs)
	if r.Lat != nil && r.Lat.All().Count() > 0 {
		lat = fmt.Sprintf("lat=%6.1fus p50=%6.1fus p99=%6.1fus", r.AvgLatencyUs, r.P50Us, r.P99Us)
	}
	if r.Workload == WLTPCC {
		return fmt.Sprintf("%-10s total=%9.0f txns/s  new-order=%9.0f txns/s  abort=%5.1f%%  %s",
			r.System, r.TotalTPS, r.NewOrderTPS, r.AbortRate*100, lat)
	}
	return fmt.Sprintf("%-10s total=%9.0f txns/s  abort=%5.1f%%  %s",
		r.System, r.TotalTPS, r.AbortRate*100, lat)
}

// AbortSummary renders the top abort-attribution cells as
// "reason@stage→nSITE:count" terms, worst first, followed by the top-K hot
// keys ("tTABLE/kKEY:count") so table notes show WHICH records drive the
// tail, not just reason×stage×site, and by how many retries the hot-key gates
// admitted (of which how many waited in virtual time). Empty when nothing
// aborted. Stage "C.3+4-htm" includes drtmr's local check before C.1.
func (r Result) AbortSummary(topN int) string {
	s := r.AbortMatrix.Summary(topN, abortReasonName, txn.StageName)
	ranked := r.HotKeys()
	if len(ranked) == 0 {
		return s
	}
	terms := make([]string, 0, topN)
	for i, hk := range ranked {
		if topN > 0 && i >= topN {
			break
		}
		terms = append(terms, fmt.Sprintf("t%d/k%d:%d", hk.Key.Table, hk.Key.Key, hk.Aborts))
	}
	hot := "hot keys " + strings.Join(terms, " ")
	if r.GateAdmissions > 0 {
		hot += fmt.Sprintf("; gate admissions %d (%d waited)", r.GateAdmissions, r.QueueWaits)
	}
	if s == "" {
		return hot
	}
	return s + "; " + hot
}

func abortReasonName(c uint8) string { return txn.AbortReason(c).String() }

// TraceNames wires the transaction engine's stage/reason/HTM-cause namers
// into the trace exporter; pass it to obs.WriteTrace for Result.Trace. A
// "C.3+4-htm" span is the commit HTM region or drtmr's check before C.1.
func TraceNames() obs.TraceNames {
	return obs.TraceNames{
		Stage:  txn.StageName,
		Reason: abortReasonName,
		Cause:  func(c uint8) string { return htm.AbortCause(c).String() },
	}
}

// typeNamesFor returns the workload's transaction-type names in TxType order.
func typeNamesFor(w Workload) []string {
	if w == WLTPCC {
		return tpcc.TypeNames()
	}
	return smallbank.TypeNames()
}

// replicasFor maps the system to its replication degree.
func replicasFor(s System) int {
	if s == SysDrTMR3 {
		return 3
	}
	return 1
}

// Run executes one experiment.
func Run(o Options) Result {
	o = o.Defaults()
	switch o.System {
	case SysDrTMR, SysDrTMR3:
		return runDrTMR(o)
	case SysDrTM, SysCalvin, SysSilo:
		if o.Workload != WLTPCC {
			panic("harness: the comparison baselines implement TPC-C only")
		}
		return baselines[o.System](o)
	default:
		panic("harness: unknown system")
	}
}

// buildCluster creates a cluster, per-machine stores and loads the workload
// (primaries and backups).
func buildCluster(o Options, replicas int) *cluster.Cluster {
	heartbeat := o.HeartbeatEvery
	if o.Deterministic {
		// The failure plane never ticks, so the gated schedule holds no
		// heartbeat or detector work.
		heartbeat = time.Hour
	}
	c := cluster.New(cluster.Spec{
		Nodes:          o.Nodes,
		Replicas:       replicas,
		MemBytes:       memFor(o, replicas),
		HTM:            o.HTM,
		RDMA:           rdma.Config{NICBytesPerSec: rdma.NICBandwidth56G},
		Lease:          o.Lease,
		HeartbeatEvery: heartbeat,
	})
	var err error
	switch o.Workload {
	case WLTPCC:
		err = tpcc.LoadCluster(c, tpccConfig(o), o.Seed)
	case WLSmallBank:
		err = smallbank.LoadCluster(c, smallbankConfig(o))
	default:
		panic("harness: unknown workload")
	}
	if err != nil {
		panic(err)
	}
	return c
}

// tpccConfig is the TPC-C workload o describes.
func tpccConfig(o Options) tpcc.Config {
	return tpcc.Config{
		Nodes:              o.Nodes,
		WarehousesPerNode:  o.WarehousesPerNode,
		RemoteNewOrderProb: o.CrossWarehouseNO,
		RemotePaymentProb:  o.CrossWarehousePay,
	}
}

// smallbankConfig is the SmallBank workload o describes.
func smallbankConfig(o Options) smallbank.Config {
	hot := o.SBHotFraction
	if hot == 0 {
		hot = 0.04
	}
	return smallbank.Config{
		AccountsPerNode: o.SBAccountsPerNode,
		Nodes:           o.Nodes,
		RemoteProb:      o.SBRemoteProb,
		HotFraction:     hot,
		ReadOnlyFrac:    o.SBReadOnlyFrac,
		InitialBalance:  10000,
	}
}

func memFor(o Options, replicas int) int {
	if o.Workload == WLTPCC {
		// ~3MB per warehouse (stock dominates) x copies + slack.
		per := 4 << 20
		need := o.WarehousesPerNode * per * 3
		if need < 64<<20 {
			need = 64 << 20
		}
		return need
	}
	return smallbankConfig(o).MemBytes(replicas)
}

// runDrTMR measures DrTM+R (with or without replication).
func runDrTMR(o Options) Result {
	replicas := replicasFor(o.System)
	c := buildCluster(o, replicas)
	defer c.Stop()
	tcfg, scfg := tpccConfig(o), smallbankConfig(o)

	var engines []*txn.Engine
	switch o.Workload {
	case WLTPCC:
		for _, m := range c.Machines {
			engines = append(engines, txn.NewEngine(m, tcfg.Partitioner(m.ID)))
		}
	case WLSmallBank:
		for _, m := range c.Machines {
			engines = append(engines, txn.NewEngine(m, scfg.Partitioner()))
		}
	}
	for _, e := range engines {
		e.Knobs = o.Knobs
	}
	c.Start()

	kill := o.KillAt > 0
	if o.Deterministic {
		if replicas != 1 {
			panic("harness: Deterministic requires an unreplicated system")
		}
		if kill {
			panic("harness: Deterministic requires no kill injection")
		}
	}
	gate := newStepGate(o, o.Nodes*o.ThreadsPerNode)
	var ticks *obs.TickSource
	if o.History {
		ticks = obs.NewTickSource()
	}
	var milestones *obs.Recorder
	if kill {
		if replicas == 1 {
			panic("harness: KillAt needs a replicated system")
		}
		c.KillAt(rdma.NodeID(o.KillNode), int64(o.KillAt))
		if o.Trace {
			milestones = obs.NewRecorder(-1, 0, 64)
			c.SetRecorder(milestones)
		}
	}

	typeNames := typeNamesFor(o.Workload)
	n := o.Nodes * o.ThreadsPerNode
	// What a worker hands back beside its counters, one slot per worker: a
	// killed worker's slot also holds its successor on the promoted primary.
	lats := make([]*obs.TypedHist, n)
	workers := make([][]*txn.Worker, n)
	commits := make([][]int64, n) // commit instants, in kill runs
	ends := make([]int64, n)
	r := runWorkers(o, o.Nodes, func(node, tid int) worked {
		gid := node*o.ThreadsPerNode + tid
		newWorker := func(e *txn.Engine, id int) *txn.Worker {
			w := e.NewWorker(id)
			workers[gid] = append(workers[gid], w)
			if ticks != nil {
				w.EnableHistory(ticks)
			}
			if o.Trace {
				w.EnableTrace(o.TraceEventsPerWorker)
			}
			return w
		}
		w := newWorker(engines[node], tid)
		if gate != nil {
			w.SetGate(gate.stepFn(gid))
			defer gate.finish(gid)
		}
		// Per-worker histogram of virtual commit latency (measured
		// around each successful transaction, retries included).
		lat := obs.NewTypedHist(typeNames...)
		lats[gid] = lat
		committed := func(ty int, start int64) {
			lat.Record(ty, w.Clk.Now()-start)
			if kill {
				commits[gid] = append(commits[gid], w.Clk.Now())
			}
		}
		var newOrders uint64
		var one func() // runs the workload's next transaction on w
		var ex *tpcc.Executor
		switch o.Workload {
		case WLTPCC:
			whs := tcfg.WarehousesOf(node)
			ex = tpcc.NewExecutor(w, tpcc.NewGen(tcfg, whs[tid%len(whs)], o.Seed+uint64(node*100+tid)))
			one = func() {
				s := w.Clk.Now()
				ty, err := ex.RunOne()
				if err != nil {
					return
				}
				committed(int(ty), s)
				if ty == tpcc.TxNewOrder {
					newOrders++
				}
			}
		case WLSmallBank:
			g := smallbank.NewGen(scfg, cluster.ShardID(node), o.Seed+uint64(node*100+tid))
			one = func() {
				p := g.Next()
				s := w.Clk.Now()
				if smallbank.Execute(w, p) == nil {
					committed(int(p.Type), s)
				}
			}
		}
		// The worker multiplexes its TxPerWorker budget over N coroutines
		// (strict handoff keeps the shared countdown and generator state
		// single-threaded); N=1 runs the classic sequential loop.
		remaining := o.TxPerWorker
		run := func() {
			m := w.E.M
			w.RunCoroutines(o.Coroutines(), func(int) {
				for remaining > 0 && !m.Dead() {
					remaining--
					one()
				}
			})
		}
		run()
		if w.E.M.Dead() && remaining > 0 {
			// The failed instance is revived on its shard's promoted
			// primary, sharing that machine's NIC, as in the paper. Its first
			// transaction reaches the dead primary and waits there, like any
			// survivor's, until recovery is done.
			next, _ := c.Coord.Current().WithoutNode(w.E.M.ID)
			prev := w
			w = newWorker(engines[next.PrimaryOf(cluster.ShardID(node))], o.ThreadsPerNode+tid)
			w.Clk.AdvanceTo(prev.Clk.Now())
			if ex != nil {
				ex.W = w
			}
			run()
			w.Stats.Merge(&prev.Stats)
		}
		ends[gid] = w.Clk.Now()
		return worked{stats: &w.Stats, newOrders: newOrders, clock: w.Clk.Now()}
	})
	r.Yields = r.CoYields
	r.Lat = obs.NewTypedHist(typeNames...)
	for gid, ws := range workers {
		r.Lat.Merge(lats[gid])
		for _, w := range ws {
			if w.Rec != nil {
				r.Trace = append(r.Trace, w.Rec)
			}
			if w.Hist != nil {
				r.History = append(r.History, w.Hist)
			}
		}
	}
	if milestones != nil {
		r.Trace = append(r.Trace, milestones)
	}
	if kill {
		r.Recovery = newRecovery(c.Milestones(), commits, ends)
	}
	r.applyHistogram()
	return r
}

// HistoryTxns merges every worker's recorded transactions into one history
// ordered by invocation tick (obs.MergeHistory).
func (r Result) HistoryTxns() []obs.HistTxn { return obs.MergeHistory(r.History...) }

// applyHistogram derives the latency summary fields from Lat. The mean
// REPLACES summarize's back-computation: the two agree only when each worker
// runs one transaction at a time (CoroutinesPerWorker = 1; see
// TestAvgLatencyAgreesWithHistogram) — with N in-flight contexts a
// transaction's latency includes the virtual time peers consume while it is
// parked, which the back-computation divides away.
func (r *Result) applyHistogram() {
	all := r.Lat.All()
	if all.Count() == 0 {
		return
	}
	r.AvgLatencyUs = all.Mean() / 1e3
	r.P50Us = all.Quantile(0.50) / 1e3
	r.P90Us = all.Quantile(0.90) / 1e3
	r.P99Us = all.Quantile(0.99) / 1e3
	r.P999Us = all.Quantile(0.999) / 1e3
}

// worked is what one worker goroutine reports when its transactions are done.
type worked struct {
	stats     *txn.Stats
	newOrders uint64
	clock     int64 // the worker's final virtual clock
}

// runWorkers is where every system harness.Run knows gets its worker
// goroutines: work(node, tid) runs once per worker, nodes × o.ThreadsPerNode
// of them side by side, and what they report is folded into the Result —
// counters merged, new-orders summed, and of the final virtual clocks the
// slowest as the run's elapsed time and the sum as what all transactions
// together cost. An abort is a retried attempt in every system, so
// Stats.Retries is the abort count (the baselines have no per-reason Aborts
// to sum).
func runWorkers(o Options, nodes int, work func(node, tid int) worked) Result {
	outs := make([]worked, nodes*o.ThreadsPerNode)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		for t := 0; t < o.ThreadsPerNode; t++ {
			wg.Add(1)
			go func(node, tid int) {
				defer wg.Done()
				outs[node*o.ThreadsPerNode+tid] = work(node, tid)
			}(n, t)
		}
	}
	wg.Wait()
	r := Result{System: o.System, Workload: o.Workload}
	var slowest, sum int64
	for _, out := range outs {
		r.Stats.Merge(out.stats)
		r.NewOrders += out.newOrders
		slowest = max(slowest, out.clock)
		sum += out.clock
	}
	r.VirtualSec = max(float64(slowest)/1e9, 1e-9)
	r.WorkerVirtualSec = float64(sum) / 1e9
	r.TotalTPS = float64(r.Committed) / r.VirtualSec
	r.NewOrderTPS = float64(r.NewOrders) / r.VirtualSec
	if r.Committed+r.Retries > 0 {
		r.AbortRate = float64(r.Retries) / float64(r.Committed+r.Retries)
	}
	if r.Committed > 0 {
		r.AvgLatencyUs = r.WorkerVirtualSec / float64(r.Committed) * 1e6
	}
	return r
}
