package drtmr_test

// One benchmark per table/figure of the paper's evaluation (§7), backed by
// the experiment drivers in internal/bench/harness. These run the SMOKE
// scale so `go test -bench=.` finishes quickly; the full paper-scale sweeps
// are `go run ./cmd/drtmr-bench -fig all`.
//
// Reported custom metrics: txns/s is committed transactions per second of
// VIRTUAL time (the simulated cluster's time; see internal/sim), which is
// the paper's metric; new-order/s likewise for TPC-C.

import (
	"strings"
	"testing"

	"drtmr/internal/bench/harness"
	"drtmr/internal/bench/serveload"
)

// columnUnit is the metric unit a figure column reports in, read off the
// column's name: the figures' own tables mix throughput, latency percentiles,
// verb counts and rates. A bare series name ("DrTM+R", "remote=5%") is a
// throughput.
func columnUnit(col string) string {
	switch {
	case strings.HasSuffix(col, "us"):
		return "_us"
	case strings.HasSuffix(col, "ms"):
		return "_ms"
	case strings.HasSuffix(col, "shed%"):
		return "_%"
	case strings.Contains(col, "rov"):
		return "_verbs/100txn"
	case strings.HasSuffix(col, "wake"):
		return "_count"
	default:
		return "_txns/s"
	}
}

// BenchmarkFig runs every figure of serveload.Figures (harness.Figures plus
// the network-serve sweep) as a sub-benchmark named by its -fig value, e.g.
// "go test -bench 'BenchmarkFig/proto$'", and reports the table's first row
// (the headline row; sweep tables put their smallest configuration first) as
// custom metrics. Two table-wide checks ride along: a "wake" column counts
// remote-CPU wakeups at pure read participants and must measure 0 in every
// row for every protocol, and a note saying DROPPED is a hole in the serve
// fleet's accounting.
func BenchmarkFig(b *testing.B) {
	for _, f := range serveload.Figures {
		b.Run(f.Name, func(b *testing.B) {
			var t harness.Table
			for i := 0; i < b.N; i++ {
				t = f.Run(harness.Smoke)
			}
			if len(t.Rows) == 0 || len(t.Rows[0].Values) == 0 {
				b.Fatal("empty experiment table")
			}
			for i, col := range t.Columns {
				if i < len(t.Rows[0].Values) {
					b.ReportMetric(t.Rows[0].Values[i], strings.ReplaceAll(col, " ", "-")+columnUnit(col))
				}
				if !strings.HasSuffix(col, "wake") {
					continue
				}
				for _, r := range t.Rows {
					if r.Values[i] != 0 {
						b.Fatalf("row %s: nonzero read-only wakeups in column %q: %g", r.XName, col, r.Values[i])
					}
				}
			}
			for _, n := range t.Notes {
				if strings.Contains(n, "DROPPED") {
					b.Fatalf("fleet accounting hole: %s", n)
				}
			}
		})
	}
}
