package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runSet is an -out file's end-to-end runs, grouped by workload, all taken
// at one size.
type runSet struct {
	seconds    int
	byWorkload map[string][]record
}

// readRecords loads an -out file. Runs of different sizes measure different
// amounts of work and smoke runs measure nothing, so either is an error.
func readRecords(path string) (runSet, error) {
	set := runSet{byWorkload: make(map[string][]record)}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return set, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		switch {
		case r.Seconds == 0:
			return set, fmt.Errorf("%s:%d: a -smoke run; it measures nothing to compare", path, line)
		case set.seconds == 0:
			set.seconds = r.Seconds
		case r.Seconds != set.seconds:
			return set, fmt.Errorf("%s:%d: run taken at -seconds %d, earlier ones at %d", path, line, r.Seconds, set.seconds)
		}
		set.byWorkload[r.Workload] = append(set.byWorkload[r.Workload], r)
	}
	return set, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method (Python's statistics.quantiles(v, n=4)), which the
// driver uses for the spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		i := int(pos)
		switch {
		case pos <= 0:
			return s[0]
		case i+1 >= len(s):
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// compareFiles compares two -out files; see compareRuns. Exit code 2 when
// the files cannot be compared at all.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b runSet
		if b, err = readRecords(pathB); err == nil {
			if a.seconds == b.seconds {
				return compareRuns(a.byWorkload, b.byWorkload, stdout)
			}
			err = fmt.Errorf("%s was taken at -seconds %d, %s at %d", pathA, a.seconds, pathB, b.seconds)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

// failShare is the share of a side's operations that did not complete, and
// whether every run passed its correctness checks.
func failShare(rs []record) (share float64, correct bool) {
	var failed, attempted int64
	correct = true
	for _, r := range rs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
		correct = correct && r.Correct
	}
	return float64(failed) / float64(max(attempted, 1)), correct
}

// compareRuns prints one row per (end-to-end metric, workload) pair: the two
// medians, the change, both interquartile spreads, the metric's bound and a
// verdict. unresolved: a side's spread is wider than the bound, so the runs
// cannot tell. regressed: b's median is worse than a's by more than the
// bound. missing: only one side has the workload or the metric. Each
// workload also gets a fail_share row, regressed when a run of either side
// failed a correctness check or b left a larger share of its operations
// incomplete than a (any increase). Exit code 1 on any regressed or missing.
func compareRuns(a, b map[string][]record, stdout io.Writer) int {
	code := 0
	row := func(workload, metric, numbers, verdict string) {
		if verdict == "regressed" || verdict == "missing" {
			code = 1
		}
		fmt.Fprintf(stdout, "%-12s %-22s %s  %s\n", workload, metric, numbers, verdict)
	}
	fmt.Fprintf(stdout, "%-12s %-22s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a median", "b median", "change", "a iqr", "b iqr", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			row(w.Name, "(every metric)", fmt.Sprintf("%d runs in a, %d in b", len(ra), len(rb)), "missing")
			continue
		}
		fa, okA := failShare(ra)
		fb, okB := failShare(rb)
		verdict := "ok"
		if !okA || !okB || fb > fa {
			verdict = "regressed"
		}
		row(w.Name, "fail_share", fmt.Sprintf("%14.6f %14.6f  (checks passed: a %v, b %v)", fa, fb, okA, okB), verdict)

		for _, d := range endToEnd {
			values := func(rs []record) []float64 {
				var v []float64
				for _, r := range rs {
					if m, ok := r.Metrics[d.Name]; ok {
						v = append(v, m.Value)
					}
				}
				return v
			}
			va, vb := values(ra), values(rb)
			if len(va) != len(ra) || len(vb) != len(rb) {
				row(w.Name, d.Name, fmt.Sprintf("reported by %d of %d runs in a, %d of %d in b", len(va), len(ra), len(vb), len(rb)), "missing")
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am // positive = b is worse
			if d.Better == higher {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			verdict := "ok"
			switch {
			case spreadA > d.Bound || spreadB > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			row(w.Name, d.Name, fmt.Sprintf("%14.4f %14.4f %+7.2f%% %6.2f%% %6.2f%% %5.0f%%",
				am, bm, 100*(bm-am)/am, 100*spreadA, 100*spreadB, 100*d.Bound), verdict)
		}
	}
	return code
}
