// Command benchmark is the repository's measurement spine: seven named
// workloads, each reported as end-to-end metrics in virtual time (the model)
// and host time (the simulator), plus a per-layer table from a traced run.
// See README.md in this directory; BENCHMARK.json at the repository root
// declares the same workloads and metrics for the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// record is one run as kept in an -out file (one JSON object per line) and
// read back by -compare. Seconds is the size the run measured at (0 for
// -smoke); -compare refuses to set runs of different sizes side by side.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	outcome
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", refSeconds, "measurement budget per run, 1 to 60: the driver passes BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
	smokeSize := fs.Bool("smoke", false, "run at the tests' smoke size: every path exercised, nothing worth comparing measured")
	out := fs.String("out", "", "append each run's result to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want -seconds from 1 to 60, -trace 0 or 1, and no other arguments")
		return 2
	}
	sz := measured(*seconds)
	if *smokeSize {
		sz = smoke
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	var sink *os.File
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		sink = f
	}

	code := 0
	for _, w := range selected {
		rec := record{Workload: w.Name, Seed: *seed, Trace: *trace, Seconds: sz.seconds}
		rec.outcome = w.run(w, rec.Seed, sz, *trace == 1)
		if rec.Failed != 0 {
			rec.failf("%d of %d operations did not complete", rec.Failed, rec.Attempted)
		}
		if !rec.Correct {
			code = 1
		}
		if err := report(stdout, sink, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// report prints one run: its metrics by name with units, any notes, and the
// result object as the last line. With a sink it also appends the record.
func report(stdout io.Writer, sink *os.File, rec record) error {
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d\n", rec.Workload, rec.Seed, rec.Trace)
	fmt.Fprint(stdout, (&metricSet{defs: defs, vals: rec.Metrics}).table())
	for _, n := range rec.notes {
		fmt.Fprintln(stdout, "  note:", n)
	}
	line, err := json.Marshal(rec.outcome)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if sink == nil {
		return nil
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(sink, "%s\n", full)
	return err
}
