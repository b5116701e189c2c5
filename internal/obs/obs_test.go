package obs

import (
	"bytes"
	"math"
	"testing"
)

// --- histogram bucket boundaries -----------------------------------------

// TestBucketBoundaries walks every bucket edge in the first few octaves and
// checks BucketIndex / BucketLower / BucketUpper agree: each bucket's lower
// and upper bound map back to it, and its neighbours' bounds do not.
func TestBucketBoundaries(t *testing.T) {
	for i := 0; i < histSub*8; i++ {
		lo, hi := BucketLower(i), BucketUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if got := BucketIndex(lo); got != i {
			t.Errorf("BucketIndex(lower %d) = %d, want %d", lo, got, i)
		}
		if got := BucketIndex(hi); got != i {
			t.Errorf("BucketIndex(upper %d) = %d, want %d", hi, got, i)
		}
		if got := BucketIndex(hi + 1); got != i+1 {
			t.Errorf("BucketIndex(%d) = %d, want next bucket %d", hi+1, got, i+1)
		}
	}
	// Buckets tile the axis with no gaps.
	for i := 1; i < histSub*8; i++ {
		if BucketLower(i) != BucketUpper(i-1)+1 {
			t.Fatalf("gap between buckets %d and %d", i-1, i)
		}
	}
}

// TestBucketExactRegion: values below histSub and within the first octave
// get single-value buckets, so they round-trip exactly.
func TestBucketExactRegion(t *testing.T) {
	for v := int64(0); v < 2*histSub; v++ {
		i := BucketIndex(v)
		if BucketLower(i) != v || BucketUpper(i) != v {
			t.Fatalf("value %d not in a single-value bucket (bucket %d: [%d,%d])",
				v, i, BucketLower(i), BucketUpper(i))
		}
	}
}

// TestBucketRelativeError: bucket width / lower bound stays under 1/histSub
// everywhere, which bounds quantile error at ~3% for histSubBits=5.
func TestBucketRelativeError(t *testing.T) {
	for _, v := range []int64{100, 1000, 12345, 1e6, 1e9, 1e12, 1e15, 1e18} {
		i := BucketIndex(v)
		lo, hi := BucketLower(i), BucketUpper(i)
		if lo > v || v > hi {
			t.Fatalf("value %d outside its bucket %d [%d,%d]", v, i, lo, hi)
		}
		if rel := float64(hi-lo) / float64(lo); rel > 1.0/histSub {
			t.Errorf("value %d: relative bucket width %.4f > %.4f", v, rel, 1.0/histSub)
		}
	}
	if BucketIndex(math.MaxInt64) >= numBuckets {
		t.Fatalf("MaxInt64 bucket %d out of range %d", BucketIndex(math.MaxInt64), numBuckets)
	}
	if BucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
}

// --- histogram recording / quantiles -------------------------------------

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram must report zeros: n=%d mean=%v p50=%v", h.Count(), h.Mean(), h.Quantile(0.5))
	}
}

// TestQuantileInterpolation: numpy-style linear interpolation between
// closest ranks on exactly-representable values.
func TestQuantileInterpolation(t *testing.T) {
	var h Histogram
	h.Record(10)
	h.Record(20)
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("p50 of {10,20} = %v, want 15 (linear interpolation)", got)
	}
	if got := h.Quantile(0); got != 10 {
		t.Errorf("p0 = %v, want 10", got)
	}
	if got := h.Quantile(1); got != 20 {
		t.Errorf("p100 = %v, want 20", got)
	}
	h.Record(30)
	// n=3: target rank for q=0.5 is exactly 1 → middle value.
	if got := h.Quantile(0.5); got != 20 {
		t.Errorf("p50 of {10,20,30} = %v, want 20", got)
	}
	// q=0.25 → rank 0.5 → halfway between 10 and 20.
	if got := h.Quantile(0.25); got != 15 {
		t.Errorf("p25 of {10,20,30} = %v, want 15", got)
	}
}

func TestQuantileSingleValue(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(42)
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, got)
		}
	}
	if h.Mean() != 42 {
		t.Errorf("mean %v, want 42", h.Mean())
	}
}

// TestQuantileLargeValues: quantiles on values outside the exact region are
// bucket-resolution — within 1/histSub relative error.
func TestQuantileLargeValues(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 10000; v++ {
		h.Record(v * 1000) // 1µs .. 10ms in ns
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5000.5e3}, {0.9, 9000.1e3}, {0.99, 9900.01e3},
	} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 1.0/histSub {
			t.Errorf("Quantile(%v) = %v, want %v ±%.1f%%", tc.q, got, tc.want, 100.0/histSub)
		}
	}
	if h.Min() != 1000 || h.Max() != 10000e3 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for v := int64(0); v < 1000; v++ {
		whole.Record(v * 7)
		if v%2 == 0 {
			a.Record(v * 7)
		} else {
			b.Record(v * 7)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Mean() != whole.Mean() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merge mismatch: n=%d/%d mean=%v/%v", a.Count(), whole.Count(), a.Mean(), whole.Mean())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("Quantile(%v): merged %v != whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging an empty histogram changes nothing.
	var empty Histogram
	n, mean := a.Count(), a.Mean()
	a.Merge(&empty)
	if a.Count() != n || a.Mean() != mean {
		t.Fatal("merging empty histogram changed state")
	}
	// Merging into an empty histogram copies min/max.
	var c Histogram
	c.Merge(&whole)
	if c.Min() != whole.Min() || c.Max() != whole.Max() || c.Count() != whole.Count() {
		t.Fatal("merge into empty lost state")
	}
}

func TestTypedHist(t *testing.T) {
	th := NewTypedHist("send", "balance")
	th.Record(0, 100)
	th.Record(1, 200)
	th.Record(1, 300)
	th.Record(99, 400) // out-of-range type is dropped, aggregate included:
	// the aggregate must always equal the sum of the typed histograms, or a
	// snapshot's per-type breakdown can't reconcile against its own total.
	if th.H[0].Count() != 1 || th.H[1].Count() != 2 {
		t.Fatalf("per-type counts wrong: %d, %d", th.H[0].Count(), th.H[1].Count())
	}
	if th.All().Count() != 3 {
		t.Fatalf("aggregate count %d, want 3", th.All().Count())
	}
	o := NewTypedHist("send", "balance")
	o.Record(0, 500)
	th.Merge(o)
	if th.H[0].Count() != 2 || th.All().Count() != 4 {
		t.Fatalf("merge wrong: type0=%d all=%d", th.H[0].Count(), th.All().Count())
	}
}

// --- recorder ring -------------------------------------------------------

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(0, 0, 4)
	for i := 0; i < 3; i++ {
		r.Record(EvYield, 0, 0, 0, uint64(i), int64(i), int64(i))
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.ID != uint64(i) {
			t.Fatalf("event %d has id %d", i, e.ID)
		}
	}
	// Wrap: capacity 4, record 6 total → oldest two overwritten.
	for i := 3; i < 6; i++ {
		r.Record(EvYield, 0, 0, 0, uint64(i), int64(i), int64(i))
	}
	if r.Len() != 4 || r.Dropped() != 2 {
		t.Fatalf("after wrap: len=%d dropped=%d", r.Len(), r.Dropped())
	}
	evs = r.Events()
	for i, e := range evs {
		if want := uint64(i + 2); e.ID != want {
			t.Fatalf("after wrap event %d has id %d, want %d", i, e.ID, want)
		}
	}
}

func TestRecorderNoAlloc(t *testing.T) {
	r := NewRecorder(0, 0, 128)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(EvDoorbell, 0, 1, 8, 7, 100, 200)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", allocs)
	}
}

// --- trace export / validation -------------------------------------------

func TestWriteTraceRoundTrip(t *testing.T) {
	w := NewRecorder(0, 1, 64)
	w.Record(EvTxnBegin, 0, 0, 1, 100, 0, 0)
	w.Record(EvPhase, 1, 0, 8, 100, 10, 40)
	w.Record(EvHTM, 0, 0, 0, 100, 45, 55)
	w.Record(EvDoorbell, 0, 2, 8, 0, 10, 40)
	w.Record(EvYield, 0, 0, 0, 100, 12, 35)
	w.Record(EvTxnCommit, 0, 0, 1, 100, 0, 60)
	w.Record(EvTxnAbort, 1, 2, 1, 101, 70, 90)
	m := NewRecorder(-1, 0, 8)
	m.Record(EvMilestone, MilestoneSuspect, 1, 0, 0, 1e9, 1e9)
	m.Record(EvMilestone, MilestoneRecoveryDone, 1, 0, 0, 2e9, 2e9)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, []*Recorder{w, m}, TraceNames{}); err != nil {
		t.Fatal(err)
	}
	cats, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}
	want := map[string]int{"txn": 3, "phase": 1, "htm": 1, "doorbell": 1, "sched": 1, "milestone": 2}
	for cat, n := range want {
		if cats[cat] != n {
			t.Errorf("category %q: %d events, want %d (all: %v)", cat, cats[cat], n, cats)
		}
	}
}

func TestValidateTraceRejects(t *testing.T) {
	if _, err := ValidateTrace([]byte("not json")); err == nil {
		t.Error("accepted invalid JSON")
	}
	if _, err := ValidateTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Error("accepted empty trace")
	}
	nonMonotone := `{"traceEvents":[
		{"name":"a","cat":"txn","ph":"i","ts":10,"pid":0,"tid":0,"s":"t"},
		{"name":"b","cat":"txn","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"}]}`
	if _, err := ValidateTrace([]byte(nonMonotone)); err == nil {
		t.Error("accepted non-monotone timestamps on one track")
	}
	negDur := `{"traceEvents":[{"name":"a","cat":"txn","ph":"X","ts":1,"dur":-5,"pid":0,"tid":0}]}`
	if _, err := ValidateTrace([]byte(negDur)); err == nil {
		t.Error("accepted negative duration")
	}
}

// --- abort matrix --------------------------------------------------------

func TestAbortMatrix(t *testing.T) {
	var m AbortMatrix
	m.Record(1, 2, 3)
	m.Record(1, 2, 3)
	m.Record(4, 0, 1)
	if m.Total() != 3 {
		t.Fatalf("total %d, want 3", m.Total())
	}
	cells := m.Cells()
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	if cells[0].Count != 2 || cells[0].Reason != 1 || cells[0].Stage != 2 || cells[0].Site != 3 {
		t.Fatalf("top cell %+v", cells[0])
	}
	var o AbortMatrix
	o.Record(1, 2, 3)
	m.Merge(&o)
	if m.Total() != 4 || m.Cells()[0].Count != 3 {
		t.Fatalf("merge failed: total=%d", m.Total())
	}
	// Out-of-range indices clamp instead of panicking.
	m.Record(200, 200, 500)
	if m.Total() != 5 {
		t.Fatalf("clamped record lost: %d", m.Total())
	}
	s := m.Summary(1, func(r uint8) string { return "r" }, func(s uint8) string { return "s" })
	if s != "r@s→n3:3" {
		t.Fatalf("summary %q", s)
	}
	var empty AbortMatrix
	if empty.Summary(3, nil, nil) != "" {
		t.Fatal("empty matrix summary not empty")
	}
}

// TestMergeHistory: recorders sharing one tick source, with transactions
// interleaved across them and, within one, committed out of invocation
// order (two coroutines of one worker), merge into one complete history
// sorted by Invoke, whatever order the recorders are passed in.
func TestMergeHistory(t *testing.T) {
	ts := NewTickSource()
	hs := []*HistoryRecorder{NewHistoryRecorder(0, 0, ts), NewHistoryRecorder(0, 1, ts), NewHistoryRecorder(1, 0, ts)}
	var id uint64
	next := func(h *HistoryRecorder) HistTxn {
		id++
		return HistTxn{ID: id, Invoke: h.Tick()}
	}
	owner := make(map[uint64]*HistoryRecorder)
	add := func(h *HistoryRecorder, tx HistTxn) {
		owner[tx.ID] = h
		h.Add(tx)
	}
	for round := 0; round < 20; round++ {
		older := next(hs[0])
		a, b := next(hs[1]), next(hs[2])
		younger := next(hs[0])
		add(hs[0], younger)
		add(hs[2], b)
		add(hs[1], a)
		add(hs[0], older)
	}
	for _, order := range [][]*HistoryRecorder{hs, {hs[2], hs[0], hs[1]}} {
		got := MergeHistory(order...)
		if len(got) != int(id) {
			t.Fatalf("merged %d transactions, want %d", len(got), id)
		}
		seen := make(map[uint64]bool)
		for i, tx := range got {
			if i > 0 && tx.Invoke <= got[i-1].Invoke {
				t.Fatalf("txn %d: invoke %d after %d", i, tx.Invoke, got[i-1].Invoke)
			}
			if h := owner[tx.ID]; tx.Node != h.Node || tx.Worker != h.Worker {
				t.Errorf("txn %d on (%d,%d), recorded by (%d,%d)", tx.ID, tx.Node, tx.Worker, h.Node, h.Worker)
			}
			seen[tx.ID] = true
		}
		if len(seen) != int(id) {
			t.Fatalf("%d distinct transactions, want %d", len(seen), id)
		}
	}
	if got := MergeHistory(); len(got) != 0 {
		t.Fatalf("no recorders merged into %d transactions", len(got))
	}
}
