package main

import (
	"fmt"
	"strings"

	"drtmr/internal/txn"
)

// metricDef declares one metric: its name, unit and which direction is
// better. bound is the share of the parent's median by which an end-to-end
// metric may worsen before a change is a regression (0 for per-layer
// metrics, which carry no bound). BENCHMARK.json is generated from these
// tables (go test -run TestManifest -update) and the smoke test keeps the
// two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, per workload. virt_* are in
// the model's virtual time, host_* in this machine's wall/CPU time (the
// simulator is the product's hot path). Every workload reports every one.
// Each bound is three times the widest seed-to-seed interquartile spread any
// workload showed over ten seeds (README.md, "Measured noise"), capped at
// the 25 % the driver allows.
var endToEnd = []metricDef{
	{"virt_tps", "txn/s", higher, 0.20},
	{"virt_iqm_us", "us", lower, 0.20},
	{"virt_p99_us", "us", lower, 0.20},
	{"host_tps", "txn/s", higher, 0.25},
	{"host_cpu_us_per_txn", "us", lower, 0.25},
	{"host_allocs_per_txn", "allocs", lower, 0.06},
	{"setup_s", "s", lower, 0.25},
}

// phaseNames are the metric-name stems of txn.CommitPhase, in phase order.
var phaseNames = [txn.NumPhases]string{
	txn.PhaseLock:       "lock",
	txn.PhaseValidate:   "validate",
	txn.PhaseLog:        "log",
	txn.PhaseWriteBack:  "writeback",
	txn.PhaseUnlock:     "unlock",
	txn.PhaseROValidate: "rovalidate",
	txn.PhaseFallback:   "fallback",
}

// probeNames are the host layer probes (probes.go); each reports
// <name>_host_ns and <name>_allocs.
var probeNames = []string{
	"htm.region", "htm.nontx_cas", "rdma.batch_per_verb",
	"memstore.hash_lookup", "memstore.btree_get", "memstore.insert",
	"oplog.append", "wire.codec", "obs.record", "obs.hist_record",
	"sim.clock", "sim.resource",
	"txn.local_commit", "txn.remote8_commit", "txn.coro_yield",
}

// perLayer lists the single-layer metrics of the traced run. "/txn" units
// are per committed transaction. A metric that does not apply to a workload
// (serve.* outside serve, a phase the workload never enters) reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) { ms = append(ms, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, p := range phaseNames {
		add("txn."+p+"_verbs", "verbs/txn", lower)
		add("txn."+p+"_doorbells", "1/txn", lower)
		add("txn."+p+"_virt_ns", "ns/txn", lower)
	}
	add("txn.ro_verbs", "verbs/txn", lower)
	add("txn.ro_wakeups", "count", lower)
	add("txn.abort_rate", "share", lower)
	add("txn.retries", "1/txn", lower)
	for _, s := range []string{"lock", "validate", "htm", "queue"} {
		add("txn.abort_share_"+s, "share", lower)
	}
	add("txn.fallback_share", "share", lower)
	add("txn.queue_waits", "1/txn", lower)
	add("txn.queue_wait_p99_virt_us", "us", lower)
	add("txn.yields", "1/txn", lower)
	add("txn.overlap_virt_ns", "ns/txn", higher)
	add("txn.stall_virt_ns", "ns/txn", lower)
	add("txn.overlap_share", "share", higher)
	add("txn.virt_p50_us", "us", lower)
	add("txn.virt_p999_us", "us", lower)
	add("virt.replay_drift_pct", "%", lower)

	// Trace-derived virtual self time (trace.go).
	add("txn.exec_virt_ns", "ns/txn", lower)
	add("txn.aborted_virt_ns", "ns/txn", lower)
	add("txn.yield_virt_ns", "ns/txn", lower)
	add("htm.regions", "1/txn", lower)
	add("htm.region_virt_ns", "ns/txn", lower)
	add("htm.abort_rate", "share", lower)
	add("htm.abort_conflict_share", "share", lower)
	add("htm.abort_spurious_share", "share", lower)
	add("rdma.doorbells", "1/txn", lower)
	add("rdma.verbs_per_doorbell", "verbs", higher)
	add("rdma.doorbell_virt_ns", "ns/txn", lower)
	add("rdma.multi_target_share", "share", higher)
	add("trace.unattributed_share", "share", lower)
	add("trace.events", "1/txn", lower)
	add("obs.trace_overhead_pct", "%", lower)

	for _, p := range probeNames {
		add(p+"_host_ns", "ns/op", lower)
		add(p+"_allocs", "allocs/op", lower)
	}
	add("txn.remote8_commit_virt_ns", "ns/txn", lower)

	add("serve.call_p50_us", "us", lower)
	add("serve.call_p99_us", "us", lower)
	add("serve.service_p50_us", "us", lower)
	add("serve.overhead_p50_us", "us", lower)
	add("serve.shed_share", "share", lower)
	add("serve.retries_per_call", "1/call", lower)
	for _, s := range clientSpans {
		add("serve.client_"+s+"_ns", "ns/call", lower)
	}

	add("host.sys_share", "share", lower)
	add("host.gc_cycles", "count", lower)
	add("host.heap_mib", "MiB", lower)
	return ms
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a declared table.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]metric, len(defs))}
}

// set records a value for a declared metric. An undeclared name is a bug in
// the benchmark, not an input condition.
func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.Name == name {
			s.vals[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// zero gives every declared metric under prefix that was not set the value
// 0: that layer does not take part in this workload.
func (s *metricSet) zero(prefix string) {
	for _, d := range s.defs {
		if _, ok := s.vals[d.Name]; !ok && strings.HasPrefix(d.Name, prefix) {
			s.vals[d.Name] = metric{Unit: d.Unit}
		}
	}
}

// missing names the declared metrics without a value.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		if _, ok := s.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// table renders the set in declaration order, one "name value unit" row each.
func (s *metricSet) table() string {
	var out string
	for _, d := range s.defs {
		if m, ok := s.vals[d.Name]; ok {
			out += fmt.Sprintf("  %-34s %16.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	return out
}
