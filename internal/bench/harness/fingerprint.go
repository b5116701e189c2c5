package harness

import (
	"fmt"
	"hash/fnv"

	"drtmr/internal/obs"
)

// Fingerprint hashes every observable field of the Result — the rates
// (floats bit-exact), the full latency histogram bucket contents, the
// embedded Stats as a whole (so a counter added to txn.Stats is covered the
// day it is added; the key-abort map enters ranked, as HotKeys), and the
// complete transaction history when recorded — into one hex token. Two runs
// with the same Options produce the same fingerprint iff they produced
// bit-identical Results; the determinism regression test compares these.
func (r Result) Fingerprint() string {
	h := fnv.New64a()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("sys=%d wl=%d no=%d vs=%b wvs=%b tps=%b notps=%b ar=%b avg=%b p50=%b p90=%b p99=%b p999=%b",
		r.System, r.Workload, r.NewOrders, r.VirtualSec, r.WorkerVirtualSec, r.TotalTPS,
		r.NewOrderTPS, r.AbortRate, r.AvgLatencyUs, r.P50Us, r.P90Us, r.P99Us, r.P999Us)
	if r.Lat != nil {
		hist := func(tag string, g *obs.Histogram) {
			put("|%s n=%d sum=%d min=%d max=%d", tag, g.Count(), g.Sum(), g.Min(), g.Max())
			g.Fold(func(b int, c uint64) { put(" %d:%d", b, c) })
		}
		hist("all", r.Lat.All())
		for i := range r.Lat.H {
			hist(r.Lat.Names[i], &r.Lat.H[i])
		}
	}
	hot := r.HotKeys()
	r.KeyAborts = nil // r is this call's copy; the map is hashed as its ranking
	put("|stats %v|hot %v", r.Stats, hot)
	for _, t := range r.HistoryTxns() {
		put("|tx %x n%d w%d ro=%t m=%t i=%d r=%d vs=%d ve=%d",
			t.ID, t.Node, t.Worker, t.ReadOnly, t.Maybe, t.Invoke, t.Response, t.VStart, t.VEnd)
		for _, op := range t.Ops {
			put(";%d t%d k%d s%d i%d %t", op.Kind, op.Table, op.Key, op.Seq, op.Inc, op.HaveInc)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
