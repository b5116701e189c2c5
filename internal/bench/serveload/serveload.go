// Package serveload holds the one benchmark figure that runs through the
// real network front door (internal/serve) instead of driving workers
// in-process. It lives outside internal/bench/harness because harness is
// imported by internal/check, which serve's own tests use — the figure
// depending on serve from inside harness would close an import cycle.
package serveload

import (
	"fmt"

	"drtmr/internal/bench/harness"
	"drtmr/internal/bench/smallbank"
	"drtmr/internal/serve"
)

// Figures is the complete evaluation: harness.Figures plus the serve sweep,
// which cannot sit in that table for the import cycle above. cmd/drtmr-bench
// and bench_test.go iterate this list.
var Figures = append(harness.Figures[:len(harness.Figures):len(harness.Figures)], harness.Figure{
	Name: "serve",
	Doc:  "network-serve overload sweep over real TCP, admission on vs off (wall time)",
	Run:  FigServeOverload,
})

// FigServeOverload sweeps open-loop offered load through 2× saturation
// against a live drtmr-serve over TCP, with the admission controller on
// versus off (drtmr-bench -fig serve regenerates it). The claim under test:
// watermark shedding keeps the *accepted* requests' p99 bounded at
// overload — paying for it with an explicit shed rate — while the
// no-shedding ablation queues without limit and its p99 collapses to the
// run length. Unlike every other figure, both axes are wall time: this is
// the one benchmark that runs through the real network front door.
func FigServeOverload(scale harness.Scale) harness.Table {
	t := harness.Table{
		Title:   "Serve overload: open-loop fleet vs admission control (wall time)",
		XLabel:  "offered/saturation",
		Columns: []string{"on tps", "on p99ms", "on shed%", "off tps", "off p99ms"},
	}
	// The mix is audit-heavy (span-128 cold sweeps, ~13ms modeled service
	// each): executor residency, not the loopback RTT or the host's core
	// count, is the scarce resource, so "saturation" means the executor
	// pool — the regime admission control exists for. Users give ~2.5x
	// headroom over the watermark, so the client fleet itself never becomes
	// the hidden bottleneck on the admission-on side.
	nodes, accounts, workers, users, calls := 3, 10000, 2, 64, 6000
	mults := []float64{0.25, 0.5, 1.0, 1.5, 2.0}
	if scale == harness.Smoke {
		nodes, accounts, users, calls = 2, 2000, 32, 1600
		mults = []float64{0.25, 2.0}
	}
	watermark := 4 * nodes * workers
	cfg := smallbank.Config{
		AccountsPerNode: accounts,
		Nodes:           nodes,
		RemoteProb:      0.1,
		InitialBalance:  10000,
	}

	// startCell boots a fresh loaded server per measurement so one cell's
	// backlog (the ablation's unbounded queue) cannot leak into the next.
	startCell := func(admissionOff bool) (string, func()) {
		db, err := serve.OpenBank(cfg, 1)
		if err != nil {
			panic(err)
		}
		s := serve.New(db, serve.Options{
			WorkersPerNode: workers,
			Admission:      serve.AdmissionConfig{Disabled: admissionOff, MaxQueue: watermark},
		})
		if err := serve.RegisterBank(s, cfg, serve.BankProcs{}); err != nil {
			panic(err)
		}
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		return addr.String(), s.Close
	}

	fleet := func(addr string, rate float64, n int) serve.FleetResult {
		return serve.RunFleet(serve.FleetOptions{
			Addr:      addr,
			Users:     users,
			Rate:      rate,
			Calls:     n,
			Skew:      0.9,
			Accounts:  accounts * nodes,
			ReadFrac:  0.05,
			AuditFrac: 0.75,
			AuditSpan: 128,
			Seed:      29,
		})
	}

	// Calibrate saturation: a closed-loop flood (rate 0) against an
	// admission-OFF server measures the accepted-throughput ceiling the
	// sweep's multipliers are relative to. Off, because flooding a watermark
	// would spend the run bouncing sheds instead of measuring capacity.
	addr, stop := startCell(true)
	cal := fleet(addr, 0, calls/2)
	stop()
	satTPS := float64(cal.OK) / cal.Elapsed.Seconds()
	t.Notes = append(t.Notes, fmt.Sprintf("saturation (closed-loop, %d users): %.0f tps", users, satTPS))

	for _, m := range mults {
		rate := m * satTPS
		n := calls
		if m < 1 {
			n = int(float64(calls) * m) // low-load cells: same wall time, enough samples
		}

		addrOn, stopOn := startCell(false)
		on := fleet(addrOn, rate, n)
		stopOn()
		addrOff, stopOff := startCell(true)
		off := fleet(addrOff, rate, n)
		stopOff()

		shedPct := 100 * float64(on.ShedBusy+on.ShedDeadline) / float64(on.Offered)
		t.Rows = append(t.Rows, harness.Row{
			X: m, XName: fmt.Sprintf("%.2fx", m),
			Values: []float64{
				float64(on.OK) / on.Elapsed.Seconds(),
				on.Lat.Quantile(0.99) / 1e6,
				shedPct,
				float64(off.OK) / off.Elapsed.Seconds(),
				off.Lat.Quantile(0.99) / 1e6,
			},
		})
		if on.Dropped != 0 || off.Dropped != 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%.2fx: DROPPED on=%d off=%d (must be 0)", m, on.Dropped, off.Dropped))
		}
	}

	// The acceptance ratio: accepted p99 at the deepest overload vs the
	// unsaturated baseline, admission on. The ablation's ratio shows the
	// tail collapse shedding prevents.
	if len(t.Rows) >= 2 {
		base := t.Rows[0].Values[1]
		last := t.Rows[len(t.Rows)-1]
		if base > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"p99 growth at %s vs %s: admission on %.1fx (shed %.1f%%), off %.1fx",
				last.XName, t.Rows[0].XName, last.Values[1]/base, last.Values[2], last.Values[4]/base))
		}
	}
	return t
}
