package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in code")

// manifest is BENCHMARK.json: the contract the driver reads.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []*workload `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

const manifestPath = "../BENCHMARK.json"

// TestManifest keeps BENCHMARK.json equal to the workload and metric tables
// the benchmark actually runs and reports.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: refSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(manifestPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the tables in code; run go test -run TestManifest -update", manifestPath)
	}
}

// TestDeclarations checks the names, units and limits the contract sets.
func TestDeclarations(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	claim := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	for _, w := range workloads {
		claim(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		claim(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
}

// TestSmoke runs every workload both ways at smoke size: each must pass its
// own correctness checks and report exactly the metrics declared for that
// mode, and every layer probe must run. The workloads run side by side to
// keep the test short (each spends its time building clusters); nothing
// measured at this size is looked at beyond being there.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				t.Parallel()
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				out := w.run(w, 7, smoke, trace)
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%q", out.Correct, out.Attempted, out.Failed, out.notes)
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", d.Name, m.Value)
					case !trace && m.Value <= 0 && !strings.HasPrefix(d.Name, "host_"):
						// host_* are net of set-up, and the smoke size's
						// work is smaller than the set-up's own jitter.
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// Every record reports virt_tps only, so compare against that table.
	defer func(defs []metricDef) { endToEnd = defs }(endToEnd)
	endToEnd = endToEnd[:1]
	if endToEnd[0].Name != "virt_tps" || endToEnd[0].Bound >= 0.25 {
		t.Fatalf("the cases below assume virt_tps, higher is better, bound under 25%%; have %+v", endToEnd[0])
	}
	runs := func(tps ...float64) map[string][]record {
		var rs []record
		for _, v := range tps {
			rs = append(rs, record{Workload: "sb-dist", Seconds: refSeconds, outcome: outcome{
				Correct: true, Attempted: 100, Metrics: map[string]metric{"virt_tps": {Value: v}},
			}})
		}
		return map[string][]record{"sb-dist": rs}
	}
	edit := func(set map[string][]record, f func(r *record)) map[string][]record {
		f(&set["sb-dist"][0])
		return set
	}
	steady := func() map[string][]record { return runs(100, 101, 102, 103) }
	for _, c := range []struct {
		name    string
		a, b    map[string][]record
		verdict string
		code    int
	}{
		{"same", steady(), steady(), "ok", 0},
		{"higher is better, so a drop regresses", steady(), runs(70, 71, 72, 73), "regressed", 1},
		{"a rise does not", steady(), runs(130, 131, 132, 133), "ok", 0},
		{"spread wider than the bound", runs(60, 100, 140, 180), runs(60, 100, 140, 180), "unresolved", 0},
		{"a wide spread cannot show a regression either", steady(), runs(30, 50, 70, 90), "unresolved", 0},
		{"workload on one side only", steady(), map[string][]record{}, "missing", 1},
		{"metric on one side only", steady(), edit(steady(), func(r *record) { r.Metrics = nil }), "missing", 1},
		{"a failed correctness check", steady(), edit(steady(), func(r *record) { r.Correct = false }), "regressed", 1},
		{"more operations failed", steady(), edit(steady(), func(r *record) { r.Failed = 1 }), "regressed", 1},
	} {
		var buf bytes.Buffer
		if code := compareRuns(c.a, c.b, &buf); code != c.code || !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("%s: exit %d, output %q; want exit %d and verdict %s", c.name, code, buf.String(), c.code, c.verdict)
		}
	}
}

func TestCompareRefusesOtherSizes(t *testing.T) {
	write := func(name string, seconds ...int) string {
		path := filepath.Join(t.TempDir(), name)
		var buf bytes.Buffer
		for _, s := range seconds {
			line, err := json.Marshal(record{Workload: "sb-dist", Seconds: s, outcome: outcome{Correct: true, Attempted: 1}})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ten := write("ten", 10, 10)
	for name, other := range map[string]string{
		"another size":         write("five", 5, 5),
		"two sizes in a file":  write("mixed", 10, 5),
		"a smoke run (size 0)": write("smoke", 0),
	} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles(ten, other, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and a reason", name, code, stderr.String())
		}
	}
}
