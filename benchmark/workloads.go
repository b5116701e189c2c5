package main

import (
	"time"

	"drtmr/internal/bench/harness"
	"drtmr/internal/htm"
)

// refSeconds is the budget the workload sizes are written for, and
// BENCHMARK.json's run_seconds.
const refSeconds = 10

// size is how much one run measures. There are two: the measured size, whose
// counts the driver scales with -seconds (it always passes run_seconds), and
// the smoke size the tests use, which exercises every path and measures
// nothing worth comparing.
type size struct {
	seconds int           // recorded with the result; 0 for smoke
	scale   float64       // share of the reference transaction counts
	reps    int           // free-running repetitions, and set-up calibrations, a host pass takes medians of
	probe   time.Duration // how long one layer probe measures; 0 is a single batch
}

func measured(seconds int) size {
	scale := float64(seconds) / refSeconds
	return size{seconds: seconds, scale: scale, reps: 5, probe: time.Duration(scale * float64(200*time.Millisecond))}
}

var smoke = size{scale: 0.01, reps: 1}

// txns sizes a reference transaction count for the run, keeping enough
// transactions for the percentiles to exist at smoke size.
func (sz size) txns(n int) int {
	return max(40, int(float64(n)*sz.scale))
}

// workload is one named set of inputs. Sizes are per worker at the reference
// budget; they are counts, not deadlines, so a seed always produces the same
// inputs.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	opts harness.Options // in-process workloads; zero for serve
	// virtTx sizes the virtual pass (the checked run, where the workload
	// has no gated pass), hostTx one free-running host repetition. Chosen
	// so a run spends about 10 s measuring on a 2-core host (gated TPC-C
	// costs ≈160 µs of host time per transaction, gated SmallBank 10–60 µs).
	virtTx, hostTx int
	// traceEvents is a generous bound on trace events per workload
	// transaction; the traced pass sizes its rings with it and fails if a
	// ring still wraps.
	traceEvents int

	run func(w *workload, seed uint64, sz size, trace bool) outcome
}

const (
	benchNodes   = 3
	benchThreads = 2 // worker threads (serve: executors) per node
)

func sbOptions(remote float64) harness.Options {
	return harness.Options{
		Workload: harness.WLSmallBank, Nodes: benchNodes, ThreadsPerNode: benchThreads,
		SBRemoteProb: remote,
	}
}

func with(o harness.Options, f func(*harness.Options)) harness.Options {
	f(&o)
	return o
}

var workloads = []*workload{
	{
		Name: "tpcc",
		Why:  "TPC-C standard mix, 2 warehouses/node: large local transactions, so htm regions and memstore (hash, B+-tree, inserts) do the work and rdma almost none",
		opts: harness.Options{
			Workload: harness.WLTPCC, Nodes: benchNodes, ThreadsPerNode: benchThreads,
			WarehousesPerNode: 2, CrossWarehouseNO: 0.01, CrossWarehousePay: 0.15,
		},
		virtTx: 5000, hostTx: 2500, traceEvents: 80, run: runHarness,
	},
	{
		Name:   "sb-dist",
		Why:    "SmallBank write-heavy mix, half the second accounts remote: rdma batches, C.1/C.2/C.5/C.6 and the coroutine scheduler do the work, htm and memstore little; the mirror image of tpcc",
		opts:   sbOptions(0.5),
		virtTx: 60000, hostTx: 20000, traceEvents: 30, run: runHarness,
	},
	{
		Name:   "sb-ro",
		Why:    "sb-dist with 90% read-only Balance: the same layers used for reads (read-only commit, ro-validate, 3 verbs per read-only record); a read gain that costs writes shows as sb-ro up, sb-dist down",
		opts:   with(sbOptions(0.5), func(o *harness.Options) { o.SBReadOnlyFrac = 0.9 }),
		virtTx: 80000, hostTx: 40000, traceEvents: 20, run: runHarness,
	},
	{
		Name:   "sb-farm",
		Why:    "sb-dist under the FaRM-style protocol (F.1-F.5, no HTM commit region): the second commit pipeline, which no other workload would see regress",
		opts:   with(sbOptions(0.5), func(o *harness.Options) { o.Protocol = "farm" }),
		virtTx: 50000, hostTx: 15000, traceEvents: 40, run: runHarness,
	},
	{
		Name: "sb-slowpath",
		Why:  "SmallBank on a 0.05% hot set with 15% spurious HTM aborts: hot-key gates, Add deltas, backoff, HTM retries and the fallback handler, all idle on the other workloads; watch virt_p99_us",
		opts: with(sbOptions(0.3), func(o *harness.Options) {
			o.SBHotFraction = 0.0005
			o.HTM = htm.Config{SpuriousAbortProb: 0.15}
		}),
		virtTx: 16000, hostTx: 4000, traceEvents: 100, run: runHarness,
	},
	{
		Name:   "sb-r3",
		Why:    "SmallBank defaults with 3-way replication: R.1 log, oplog rings and appliers and NIC bandwidth do the work; every other workload bypasses them",
		opts:   with(sbOptions(0.01), func(o *harness.Options) { o.System = harness.SysDrTMR3 }),
		virtTx: 15000, hostTx: 15000, traceEvents: 50, run: runHarness,
	},
	{
		Name:   "serve",
		Why:    "loopback TCP through internal/serve, closed loop of 2 clients, 40% balance / 20% deposit / 40% payment, Zipf 0.5 over 30k accounts: wire, admission, queue and executor hand-off do the work",
		virtTx: 60000, hostTx: 60000, traceEvents: 16, run: runServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
