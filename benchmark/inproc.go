package main

import (
	"fmt"

	"drtmr/internal/bench/harness"
	"drtmr/internal/check"
	"drtmr/internal/obs"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// outcome is what one run reports: the contract's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // findings and context, printed above the result line
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// failf records a failed correctness check.
func (o *outcome) failf(format string, args ...any) {
	o.Correct = false
	o.notef("FAIL: "+format, args...)
}

// finish closes a run: every declared metric must have a value.
func (o *outcome) finish(ms *metricSet) {
	if miss := ms.missing(); len(miss) > 0 {
		o.failf("metrics not produced: %v", miss)
	}
	o.Metrics = ms.vals
}

// hostRep is one free-running repetition net of set-up: what it cost and how
// many transactions (serve: calls) it completed.
type hostRep struct {
	u   usage
	ops uint64
}

// virtSample is the model's view of one run: transactions completed per
// virtual second of the slowest worker, and the virtual commit latencies.
type virtSample struct {
	tps float64
	lat *obs.Histogram
}

// htmSeedMix separates the HTM model's abort stream from the workload's
// input stream, which share a seed.
const htmSeedMix = 0xA5A5

func sampleOf(r harness.Result) virtSample { return virtSample{r.TotalTPS, r.Lat.All()} }

// workers is how many worker threads the options run.
func workers(o harness.Options) int { return o.Nodes * o.ThreadsPerNode }

// count adds a run's completed and missing operations to the outcome. An
// operation is one workload transaction a worker was asked to run; an OCC
// abort that is retried to commit is not a failure.
func (o *outcome) count(opts harness.Options, r harness.Result) {
	attempted := int64(workers(opts) * opts.TxPerWorker)
	o.Attempted += attempted
	o.Failed += attempted - int64(r.Lat.All().Count())
}

// checkHistory runs the strict-serializability checker over a recorded run.
func (o *outcome) checkHistory(what string, r harness.Result, replicated bool) {
	res := check.Check(r.HistoryTxns(), check.Options{Strict: true, Replicated: replicated})
	if !res.Ok() {
		o.failf("%s: serializability check: %s", what, res)
	}
}

// hostPass measures opts free-running: n repetitions, each net of a
// calibration run of the same options with one transaction per worker (which
// costs the cluster build, the load, start and stop and nothing else).
// setup is the median of n calibrations. Each repetition draws its own
// inputs from the run's seed, so the medians are over n samples of the
// workload, not n repeats of one: how much a SmallBank stream contends
// depends on which accounts it happens to draw.
func (o *outcome) hostPass(opts harness.Options, n int) (reps []hostRep, results []harness.Result, setup usage) {
	calib := opts
	calib.TxPerWorker = 1
	var cals []usage
	for i := 0; i < n; i++ {
		cals = append(cals, measure(func() { harness.Run(calib) }))
	}
	setup = usage{
		wall:    secs(medianOf(cals, func(u usage) float64 { return u.wall.Seconds() })),
		user:    secs(medianOf(cals, func(u usage) float64 { return u.user.Seconds() })),
		sys:     secs(medianOf(cals, func(u usage) float64 { return u.sys.Seconds() })),
		mallocs: uint64(medianOf(cals, func(u usage) float64 { return float64(u.mallocs) })),
	}
	seeds := sim.NewRand(opts.Seed)
	for i := 0; i < n; i++ {
		opts.Seed = seeds.Uint64()
		opts.HTM.Seed = opts.Seed ^ htmSeedMix
		var r harness.Result
		u := measure(func() { r = harness.Run(opts) })
		o.count(opts, r)
		reps = append(reps, hostRep{u: u.minus(setup), ops: r.Committed})
		results = append(results, r)
	}
	return reps, results, setup
}

// hostMetrics reports the host pass: medians over the repetitions.
func hostMetrics(ms *metricSet, reps []hostRep, setupSeconds float64) {
	ms.set("host_tps", medianOf(reps, func(h hostRep) float64 { return float64(h.ops) / h.u.wall.Seconds() }))
	ms.set("host_cpu_us_per_txn", medianOf(reps, func(h hostRep) float64 { return h.u.cpu().Seconds() * 1e6 / float64(h.ops) }))
	ms.set("host_allocs_per_txn", medianOf(reps, func(h hostRep) float64 { return float64(h.u.mallocs) / float64(h.ops) }))
	ms.set("setup_s", setupSeconds)
}

// virtMetrics reports the model's numbers over the runs that sampled them
// (one run where the schedule is reproducible): the median throughput, and
// the latencies of all the runs together.
func virtMetrics(ms *metricSet, runs []virtSample) {
	var lat obs.Histogram
	for _, v := range runs {
		lat.Merge(v.lat)
	}
	ms.set("virt_tps", medianOf(runs, func(v virtSample) float64 { return v.tps }))
	ms.set("virt_iqm_us", interquartileMean(&lat)/1e3)
	ms.set("virt_p99_us", quantile(&lat, 0.99)/1e3)
}

// driftPct is how far apart repeated virtual passes of identical options
// land: (max − min) ÷ median of their virt_tps, in percent. 0 where the pass
// is bit-stable.
func driftPct(runs ...harness.Result) float64 {
	lo, hi := runs[0].TotalTPS, runs[0].TotalTPS
	for _, r := range runs {
		lo, hi = min(lo, r.TotalTPS), max(hi, r.TotalTPS)
	}
	return 100 * (hi - lo) / medianOf(runs, func(r harness.Result) float64 { return r.TotalTPS })
}

// virtualRun is one run of o with history recorded and, when traceEvents > 0,
// tracing on with rings of that many events per transaction (and room for
// minRing: a short free run's retries are not bounded per transaction).
// Unreplicated systems run under the harness's seeded schedule gate; the
// gate refuses replicated ones, which run free.
func virtualRun(o harness.Options, traceEvents int) harness.Result {
	const minRing = 1 << 16
	o.Deterministic, o.History = !replicated(o), true
	o.Trace, o.TraceEventsPerWorker = traceEvents > 0, max(minRing, o.TxPerWorker*traceEvents)
	return harness.Run(o)
}

func replicated(o harness.Options) bool { return o.System == harness.SysDrTMR3 }

// bitStable reports whether repeated virtual passes of o must produce equal
// fingerprints. Gated SmallBank does. Gated TPC-C drifts in the low digits
// (a finding for a later issue, reported as virt.replay_drift_pct), and a
// replicated run is not gated at all.
func bitStable(o harness.Options) bool {
	return o.Workload == harness.WLSmallBank && !replicated(o)
}

// runHarness runs one workload of internal/bench/harness.
//
// Two passes, because on a small host free-running virtual throughput swings
// tens of percent (a descheduled lock holder makes waiters burn virtual
// time) while a reproducible schedule costs several times the host time:
// the virtual pass runs under the harness's schedule gate with history on
// and feeds the serializability checker; the host pass runs harness.Run
// free, with neither. The gate refuses replicated systems, so there the
// virtual numbers come from the host pass's repetitions and the checked run
// is one more free run with history on.
func runHarness(w *workload, seed uint64, sz size, trace bool) outcome {
	out := outcome{Correct: true}
	opts := w.opts
	opts.Seed = seed
	opts.HTM.Seed = seed ^ htmSeedMix
	virt, host := opts, opts
	virt.TxPerWorker = sz.txns(w.virtTx)
	host.TxPerWorker = sz.txns(w.hostTx)

	if trace {
		ms := newMetricSet(perLayer)
		out.tracedPass(w, ms, virt)
		var r harness.Result
		u := measure(func() { r = harness.Run(host) })
		out.count(host, r)
		processMetrics(ms, u)
		runProbes(ms, sz.probe)
		ms.zero("serve.")
		out.finish(ms)
		return out
	}

	ms := newMetricSet(endToEnd)
	vr := virtualRun(virt, 0)
	out.count(virt, vr)
	out.checkHistory("virtual pass", vr, replicated(virt))
	if vr.ROWakeups != 0 {
		out.failf("virtual pass: %d read-only participant wakeups, want 0", vr.ROWakeups)
	}
	reps, results, setup := out.hostPass(host, sz.reps)
	if replicated(opts) {
		samples := make([]virtSample, len(results))
		for i, r := range results {
			samples[i] = sampleOf(r)
		}
		virtMetrics(ms, samples)
		out.notef("free-running virt_tps over the %d repetitions: drift %.1f%%", len(results), driftPct(results...))
	} else {
		out.replayCheck(virt)
		virtMetrics(ms, []virtSample{sampleOf(vr)})
	}
	hostMetrics(ms, reps, setup.wall.Seconds())
	out.finish(ms)
	return out
}

// replayCheck runs a tenth-size prefix of a gated virtual pass twice. Where
// the schedule makes a run a pure function of its options the two
// fingerprints must be equal; elsewhere the drift is reported, not failed.
func (o *outcome) replayCheck(virt harness.Options) {
	virt.TxPerWorker = max(40, virt.TxPerWorker/10)
	a, b := virtualRun(virt, 0), virtualRun(virt, 0)
	o.count(virt, a)
	o.count(virt, b)
	switch {
	case !bitStable(virt):
		o.notef("replay drift %.4f%% (virt_tps %.0f vs %.0f): this virtual pass is not bit-stable", driftPct(a, b), a.TotalTPS, b.TotalTPS)
	case a.Fingerprint() != b.Fingerprint():
		o.failf("deterministic replay diverged: fingerprint %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
}

// tracedPass repeats the virtual pass untraced and traced at half size. The
// untraced run gives the count-type layer rows; the traced run's events give
// the self-time rows. Tracing only reads clocks, so on a bit-stable workload
// the two fingerprints must be equal.
func (o *outcome) tracedPass(w *workload, ms *metricSet, virt harness.Options) {
	virt.TxPerWorker = max(40, virt.TxPerWorker/2)
	var plain, traced harness.Result
	up := measure(func() { plain = virtualRun(virt, 0) })
	ut := measure(func() { traced = virtualRun(virt, w.traceEvents) })
	o.count(virt, plain)
	o.count(virt, traced)
	o.checkHistory("untraced pass", plain, replicated(virt))
	layerMetrics(ms, plain)
	o.traceMetrics(ms, traced)

	runs := []harness.Result{plain, traced}
	if !bitStable(virt) {
		// A third run, so the drift is always over three passes.
		third := virtualRun(virt, 0)
		o.count(virt, third)
		runs = append(runs, third)
	} else if plain.Fingerprint() != traced.Fingerprint() {
		o.failf("tracing changed the virtual result: fingerprint %s untraced, %s traced", plain.Fingerprint(), traced.Fingerprint())
	}
	ms.set("virt.replay_drift_pct", driftPct(runs...))
	cpuPerTxn := func(u usage, r harness.Result) float64 { return u.cpu().Seconds() / float64(r.Committed) }
	ms.set("obs.trace_overhead_pct", 100*(cpuPerTxn(ut, traced)/cpuPerTxn(up, plain)-1))
}

// layerMetrics reports the count-type layer rows of one virtual run, per
// committed transaction. Under the gate they repeat exactly.
func layerMetrics(ms *metricSet, r harness.Result) {
	per := func(v uint64) float64 { return float64(v) / float64(r.Committed) }
	for p, name := range phaseNames {
		ps := r.Phases[p]
		ms.set("txn."+name+"_verbs", per(ps.Verbs))
		ms.set("txn."+name+"_doorbells", per(ps.Batches))
		ms.set("txn."+name+"_virt_ns", per(ps.Nanos))
	}
	ms.set("txn.ro_verbs", per(r.ROVerbs))
	ms.set("txn.ro_wakeups", float64(r.ROWakeups))
	ms.set("txn.abort_rate", r.AbortRate)

	aborts := r.AbortMatrix.Total()
	ms.set("txn.retries", per(aborts))
	byStage := make(map[uint8]uint64)
	for _, c := range r.AbortMatrix.Cells() {
		byStage[c.Stage] += c.Count
	}
	for name, stage := range map[string]uint8{
		"lock": txn.StageLock, "validate": txn.StageValidate,
		"htm": txn.StageLocalHTM, "queue": txn.StageQueue,
	} {
		ms.set("txn.abort_share_"+name, share(float64(byStage[stage]), float64(aborts)))
	}
	ms.set("txn.fallback_share", per(r.Fallbacks))
	ms.set("txn.queue_waits", per(r.QueueWaits))
	ms.set("txn.queue_wait_p99_virt_us", quantile(&r.QueueWait, 0.99)/1e3)
	ms.set("txn.yields", per(r.Yields))
	ms.set("txn.overlap_virt_ns", per(r.OverlapNanos))
	ms.set("txn.stall_virt_ns", per(r.StallNanos))
	ms.set("txn.overlap_share", share(float64(r.OverlapNanos), float64(r.OverlapNanos+r.StallNanos)))
	ms.set("txn.virt_p50_us", quantile(r.Lat.All(), 0.50)/1e3)
	ms.set("txn.virt_p999_us", quantile(r.Lat.All(), 0.999)/1e3)
}

// processMetrics reports what one free-running repetition (set-up included)
// cost the process.
func processMetrics(ms *metricSet, u usage) {
	ms.set("host.sys_share", share(u.sys.Seconds(), u.cpu().Seconds()))
	ms.set("host.gc_cycles", float64(u.gcCycles))
	ms.set("host.heap_mib", float64(u.heapSys)/(1<<20))
}

// share is part ÷ whole, 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
