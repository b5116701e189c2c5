// Command drtmr-bench regenerates the paper's evaluation tables and figures
// (§7) at full scale. Each -fig value maps to one experiment ("drtmr-bench -h"
// lists them, from harness.Figures); "all" runs the complete suite. Results
// print as text tables whose rows mirror the paper's series.
//
// Usage:
//
//	drtmr-bench -fig 10             # one figure, full scale
//	drtmr-bench -fig 16 -smoke      # quick, scaled-down run
//	drtmr-bench -fig all
//	drtmr-bench -trace out.json     # traced SmallBank run, Perfetto JSON
//	drtmr-bench -trace f.json -protocol farm  # same, FaRM-style commit
//	drtmr-bench -fig 20 -trace r.json  # the recovery run, milestones included
//	drtmr-bench -torture -seed 42   # strict-serializability torture sweep
//	drtmr-bench -torture -mutate    # checker self-test on broken protocols
//
// -trace writes a Chrome trace-event file: open it at https://ui.perfetto.dev
// (or chrome://tracing). Without -fig it runs a dedicated traced SmallBank
// experiment; with -fig 20 it traces Fig 20's run, whose failure milestones
// share the worker spans' virtual timeline.
//
// -torture replaces the figure run with the internal/check torture harness:
// every knob-matrix cell's history is checked for strict serializability and
// a violating cell prints its deterministic replay seed. -mutate instead
// runs the mutation self-test (each deliberately broken protocol step must
// be caught). Exit status 1 on any violation or uncaught mutation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"drtmr/internal/bench/harness"
	"drtmr/internal/bench/serveload"
	"drtmr/internal/check"
	"drtmr/internal/obs"
	"drtmr/internal/txn"
)

func main() {
	fig := flag.String("fig", "all", `figure/table to reproduce (listed below), or "all"`)
	smoke := flag.Bool("smoke", false, "run the scaled-down smoke version")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON to this path (traced SmallBank run, or Fig 20's run with -fig 20)")
	protocol := flag.String("protocol", "", `commit protocol for -trace runs: "" = drtmr (the HTM pipeline), "farm" = the one-sided log-append pipeline; "proto" figures sweep both`)
	torture := flag.Bool("torture", false, "run the strict-serializability torture sweep instead of a figure")
	mutate := flag.Bool("mutate", false, "with -torture: run the checker self-test against deliberately broken protocols")
	seed := flag.Uint64("seed", 3, "torture sweep seed (a violating seed replays deterministically)")
	txPerWorker := flag.Int("tx", 0, "torture: transactions per worker in deterministic cells (0 = default)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(out, "\nFigures (-fig):")
		for _, f := range serveload.Figures {
			fmt.Fprintf(out, "  %-6s %s\n", f.Name, f.Doc)
		}
	}
	flag.Parse()

	if *torture {
		os.Exit(runTorture(*mutate, *seed, *txPerWorker))
	}
	if *protocol != "" {
		if _, ok := txn.ProtocolByName(*protocol); !ok {
			fmt.Fprintf(os.Stderr, "unknown protocol %q (registered: %s)\n",
				*protocol, strings.Join(txn.Protocols(), ", "))
			os.Exit(2)
		}
	}

	scale := harness.Full
	if *smoke {
		scale = harness.Smoke
	}
	runOne := func(name string) {
		for _, f := range serveload.Figures {
			if f.Name == name {
				start := time.Now()
				f.Run(scale).Fprint(os.Stdout)
				fmt.Printf("(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
		os.Exit(2)
	}

	if *traceOut != "" {
		runTraced(*traceOut, *fig == "20", scale, *protocol)
		return
	}
	if *fig == "all" {
		for _, f := range serveload.Figures {
			runOne(f.Name)
		}
		return
	}
	runOne(*fig)
}

// runTorture runs the strict-serializability torture sweep (or, with
// mutate, the checker self-test) and returns the process exit status.
func runTorture(mutate bool, seed uint64, txPerWorker int) int {
	if mutate {
		fail := 0
		for _, oc := range check.MutationSelfTest(seed) {
			fmt.Println(oc)
			if !oc.Caught {
				fail = 1
			}
		}
		return fail
	}
	start := time.Now()
	rep := check.Torture(check.TortureOptions{
		Seed: seed, TxPerWorker: txPerWorker, Kill: true,
	})
	fmt.Println(rep)
	fmt.Printf("(%s wall time)\n", time.Since(start).Round(time.Millisecond))
	if !rep.Ok() {
		return 1
	}
	return 0
}

// runTraced runs one SmallBank experiment, or Fig 20's run, with per-worker
// tracing on and exports every event ring as a Chrome trace.
func runTraced(path string, recovery bool, scale harness.Scale, protocol string) {
	o := harness.Options{
		System:       harness.SysDrTMR,
		Workload:     harness.WLSmallBank,
		Knobs:        txn.Knobs{Protocol: protocol, CoroutinesPerWorker: 2},
		SBRemoteProb: 0.10,
	}
	if scale == harness.Smoke {
		o.Nodes, o.ThreadsPerNode, o.TxPerWorker = 3, 2, 60
		o.SBAccountsPerNode = 1000
	}
	if recovery {
		o = harness.RecoveryOptions(scale)
	}
	o.Trace = true
	r := harness.Run(o)
	fmt.Printf("%v\n", r)
	if recovery {
		harness.RecoveryTable(r).Fprint(os.Stdout)
	}
	if s := r.AbortSummary(5); s != "" {
		fmt.Printf("top aborts: %s\n", s)
	}
	writeTrace(path, r.Trace)
}

// writeTrace exports recorders as Chrome trace-event JSON, then re-reads and
// validates the file so a truncated or malformed trace fails loudly here
// rather than in the Perfetto UI.
func writeTrace(path string, recs []*obs.Recorder) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	if err := obs.WriteTrace(f, recs, harness.TraceNames()); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	cats, err := obs.ValidateTrace(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: written file failed validation: %v\n", err)
		os.Exit(1)
	}
	total := 0
	for _, n := range cats {
		total += n
	}
	fmt.Printf("wrote %s: %d events (", path, total)
	first := true
	for _, c := range []string{"txn", "phase", "htm", "doorbell", "sched", "milestone"} {
		if cats[c] == 0 {
			continue
		}
		if !first {
			fmt.Print(", ")
		}
		fmt.Printf("%s %d", c, cats[c])
		first = false
	}
	fmt.Println("); open at https://ui.perfetto.dev")
}
