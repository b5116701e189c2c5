// Command drtmr-serve runs the drtmr network front door: a TCP server
// executing SmallBank-shaped stored procedures against an embedded cluster,
// with admission control and a live status endpoint.
//
// Server mode (default) listens until interrupted:
//
//	drtmr-serve -addr 127.0.0.1:7707 -http 127.0.0.1:7708
//	curl http://127.0.0.1:7708/statusz
//
// Fleet mode starts an embedded server, drives it with an open-loop client
// fleet, and prints the accounting and final status:
//
//	drtmr-serve -fleet 64 -rate 20000 -skew 0.9 -calls 100000
//	drtmr-serve -fleet 64 -rate 20000 -admission off   # tail-collapse ablation
//
// A fleet can also target an already-running server with -connect.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"drtmr/internal/bench/smallbank"
	"drtmr/internal/serve"
	"drtmr/internal/serve/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "wire-protocol listen address")
	httpAddr := flag.String("http", "", "plain-HTTP /statusz listen address (empty = off)")
	connect := flag.String("connect", "", "fleet mode: target an external server instead of embedding one")
	nodes := flag.Int("nodes", 3, "cluster machines")
	replicas := flag.Int("replicas", 1, "copies per shard")
	workers := flag.Int("workers", 2, "executor goroutines per node")
	accounts := flag.Int("accounts", 10000, "bank accounts per node")
	admission := flag.String("admission", "on", `admission control: "on" or "off" (off = unbounded queueing, the ablation)`)
	watermark := flag.Int("watermark", 0, "queue-depth shed watermark (0 = derive from worker count)")
	payProto := flag.String("payment-protocol", "", `commit protocol for the payment procedure ("", "drtmr", "farm")`)
	fleet := flag.Int("fleet", 0, "open-loop fleet size; > 0 switches to fleet mode")
	rate := flag.Float64("rate", 0, "fleet offered load, calls/second (0 = closed loop)")
	skew := flag.Float64("skew", 0, "fleet Zipf theta over accounts")
	calls := flag.Int("calls", 50000, "fleet total calls")
	deadline := flag.Duration("deadline", 0, "fleet per-request deadline (0 = none)")
	readFrac := flag.Float64("read-frac", 0.15, "fleet fraction of balance (read-only) calls")
	auditFrac := flag.Float64("audit-frac", 0, "fleet fraction of audit sweeps (expensive reads)")
	auditSpan := flag.Int("audit-span", 256, "accounts per audit sweep")
	seed := flag.Uint64("seed", 1, "fleet arrival/key seed")
	flag.Parse()

	cfg := smallbank.Config{
		AccountsPerNode: *accounts,
		Nodes:           *nodes,
		RemoteProb:      0.1,
		InitialBalance:  10000,
	}

	target := *connect
	var srv *serve.Server
	if target == "" {
		db, err := serve.OpenBank(cfg, *replicas)
		if err != nil {
			fatal(err)
		}
		srv = serve.New(db, serve.Options{
			WorkersPerNode: *workers,
			Admission: serve.AdmissionConfig{
				Disabled: *admission == "off",
				MaxQueue: *watermark,
			},
		})
		if err := serve.RegisterBank(srv, cfg, serve.BankProcs{PaymentProtocol: *payProto}); err != nil {
			fatal(err)
		}
		bound, err := srv.Start(*addr)
		if err != nil {
			fatal(err)
		}
		target = bound.String()
		fmt.Printf("drtmr-serve listening on %s (%d nodes × %d workers, admission %s)\n",
			target, *nodes, *workers, *admission)
		if *httpAddr != "" {
			hb, err := srv.StartHTTP(*httpAddr)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("statusz on http://%s/statusz\n", hb)
		}
	}

	if *fleet <= 0 {
		// Server mode: run until interrupted.
		if srv == nil {
			fatal(fmt.Errorf("nothing to do: -connect without -fleet"))
		}
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		srv.Close()
		return
	}

	res := serve.RunFleet(serve.FleetOptions{
		Addr:      target,
		Users:     *fleet,
		Rate:      *rate,
		Calls:     *calls,
		Skew:      *skew,
		Accounts:  *accounts * *nodes,
		Deadline:  *deadline,
		ReadFrac:  *readFrac,
		AuditFrac: *auditFrac,
		AuditSpan: *auditSpan,
		Seed:      *seed,
	})
	fmt.Printf("fleet: offered %d in %s (%.0f/s accepted)\n",
		res.Offered, res.Elapsed.Round(time.Millisecond), float64(res.OK)/res.Elapsed.Seconds())
	fmt.Printf("  ok %d, shed-busy %d, shed-deadline %d, bad-request %d, errors %d, dropped %d\n",
		res.OK, res.ShedBusy, res.ShedDeadline, res.BadRequest, res.Errors, res.Dropped)
	fmt.Printf("  latency p50 %s p99 %s max %s (from scheduled arrival)\n",
		time.Duration(res.Lat.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(res.Lat.Quantile(0.99)).Round(time.Microsecond),
		time.Duration(res.Lat.Max()).Round(time.Microsecond))

	cl := client.New(client.Options{Addr: target})
	raw, err := cl.Status()
	cl.Close()
	if err == nil {
		var pretty map[string]any
		if json.Unmarshal(raw, &pretty) == nil {
			out, _ := json.MarshalIndent(pretty, "", "  ")
			fmt.Printf("status:\n%s\n", out)
		}
	}
	if srv != nil {
		srv.Close()
	}
	if res.Dropped != 0 || res.Errors != 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drtmr-serve:", err)
	os.Exit(1)
}
