package obs

import (
	"math/bits"
	"sync/atomic"
)

// Log-linear (HDR-style) histogram over non-negative int64 values, tuned for
// virtual-nanosecond latencies. Each power-of-two octave is split into
// 2^histSubBits linear sub-buckets, so relative bucket width — and therefore
// worst-case quantile error — is bounded by 1/2^histSubBits ≈ 3%. Values
// below 2^histSubBits land in exact single-value buckets. Recording is two
// shifts, a compare, and an add: no allocation, no floating point.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // linear sub-buckets per octave
)

// numBuckets covers the full non-negative int64 range: values < histSub get
// one exact bucket each, and each of the remaining octaves (up to 2^63)
// contributes histSub sub-buckets.
const numBuckets = histSub * (64 - histSubBits)

// BucketIndex maps a value to its bucket. Exported for boundary tests.
func BucketIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	// bits.Len64 >= histSubBits+1 here. The octave is chosen so that the top
	// histSubBits+1 bits select the sub-bucket; the leading bit is implicit.
	octave := bits.Len64(uint64(v)) - histSubBits - 1
	sub := int(uint64(v)>>uint(octave)) - histSub
	return histSub*octave + sub + histSub
}

// BucketLower returns the smallest value mapping to bucket i. Exported for
// boundary tests and for quantile reporting (quantiles return bucket lower
// bounds, which are exact for single-value buckets).
func BucketLower(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	octave := (i - histSub) / histSub
	sub := (i - histSub) % histSub
	return int64(histSub+sub) << uint(octave)
}

// BucketUpper returns the largest value mapping to bucket i.
func BucketUpper(i int) int64 {
	if i < histSub-1 {
		return int64(i)
	}
	return BucketLower(i+1) - 1
}

// Histogram counts values in log-linear buckets and keeps the exact sum, so
// Mean is exact while quantiles are bucket-resolution (≈3%).
type Histogram struct {
	counts [numBuckets]uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// Record adds one value. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[BucketIndex(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// LiveRecord adds one value with atomic operations, so a concurrent
// Snapshot — and other LiveRecord callers — stay race-free. It is the
// mid-run recording path for histograms a live status endpoint reads while
// workers are still recording (internal/serve); end-of-run histograms keep
// using the cheaper single-writer Record. The two must not be mixed on one
// histogram while concurrent readers exist. LiveRecord does not maintain
// min/max; Snapshot derives them at bucket resolution instead.
func (h *Histogram) LiveRecord(v int64) {
	if v < 0 {
		v = 0
	}
	atomic.AddUint64(&h.counts[BucketIndex(v)], 1)
	atomic.AddInt64(&h.sum, v)
	atomic.AddUint64(&h.n, 1)
}

// Snapshot returns a self-consistent copy safe to take while LiveRecord
// races: every bucket is loaded atomically and the copy's total is the sum
// of the loaded buckets (so quantiles are exact over the copy), while sum —
// loaded separately — may lag by the handful of records in flight, making
// Mean approximate during concurrency. Min/max are reconstructed from the
// occupied bucket range (exact for values < 32, bucket-resolution above).
// Successive snapshots are monotone: no bucket count ever decreases.
func (h *Histogram) Snapshot() Histogram {
	var s Histogram
	first, last := -1, -1
	var n uint64
	for i := range h.counts {
		c := atomic.LoadUint64(&h.counts[i])
		if c == 0 {
			continue
		}
		s.counts[i] = c
		n += c
		if first < 0 {
			first = i
		}
		last = i
	}
	s.n = n
	s.sum = atomic.LoadInt64(&h.sum)
	if first >= 0 {
		s.min = BucketLower(first)
		s.max = BucketUpper(last)
	}
	return s
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.n }

// Min returns the smallest recorded value (0 if empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded value (0 if empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// rankValue returns the representative value (bucket lower bound, clamped to
// the observed min/max) of the value with zero-based rank k in sorted order.
func (h *Histogram) rankValue(k uint64) int64 {
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen > k {
			v := BucketLower(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks, matching numpy's default. Values recorded into
// exact (single-value) buckets reproduce exactly; others are reported at
// bucket resolution. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.rankValue(0))
	}
	if q >= 1 {
		return float64(h.max)
	}
	target := q * float64(h.n-1)
	lo := uint64(target)
	frac := target - float64(lo)
	v0 := float64(h.rankValue(lo))
	if frac == 0 {
		return v0
	}
	v1 := float64(h.rankValue(lo + 1))
	return v0 + frac*(v1-v0)
}

// Sum returns the exact sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Fold calls f for every non-empty bucket in ascending index order — a
// deterministic traversal of the histogram's full state, used to fingerprint
// results in determinism regression tests.
func (h *Histogram) Fold(f func(bucket int, count uint64)) {
	for i, c := range h.counts {
		if c != 0 {
			f(i, c)
		}
	}
}

// Merge adds all of o's recordings into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// TypedHist is a histogram per transaction type plus an all-types aggregate.
type TypedHist struct {
	Names []string
	H     []Histogram // one per name
	all   Histogram
}

// NewTypedHist creates a TypedHist with one histogram per type name.
func NewTypedHist(names ...string) *TypedHist {
	return &TypedHist{Names: names, H: make([]Histogram, len(names))}
}

// Record adds v under type ty and to the aggregate. An out-of-range ty is
// dropped entirely (not even the aggregate), so the aggregate is always
// exactly the sum of the typed histograms.
func (t *TypedHist) Record(ty int, v int64) {
	if ty < 0 || ty >= len(t.H) {
		return
	}
	t.H[ty].Record(v)
	t.all.Record(v)
}

// LiveRecord adds v under type ty with atomic operations (see
// Histogram.LiveRecord): the mid-run path for per-procedure histograms a
// status endpoint snapshots while workers record. Out-of-range types are
// dropped, as in Record.
func (t *TypedHist) LiveRecord(ty int, v int64) {
	if ty < 0 || ty >= len(t.H) {
		return
	}
	t.H[ty].LiveRecord(v)
	t.all.LiveRecord(v)
}

// Snapshot returns an atomically loaded copy of every per-type histogram
// with the aggregate derived by merging those copies, safe to take while
// LiveRecord races. Deriving (rather than separately loading t.all) makes
// the snapshot coherent by construction: its aggregate equals the sum of
// its typed parts no matter how many records land mid-copy. Copying the
// live aggregate instead would bound the skew only by whatever executes
// between the typed loads and the aggregate load — a preempted snapshot
// goroutine once made that window span an entire run.
func (t *TypedHist) Snapshot() *TypedHist {
	s := &TypedHist{Names: t.Names, H: make([]Histogram, len(t.H))}
	for i := range t.H {
		s.H[i] = t.H[i].Snapshot()
		s.all.Merge(&s.H[i])
	}
	return s
}

// All returns the aggregate histogram over every type.
func (t *TypedHist) All() *Histogram { return &t.all }

// Merge adds all of o's recordings into t (type lists must match).
func (t *TypedHist) Merge(o *TypedHist) {
	for i := range t.H {
		if i < len(o.H) {
			t.H[i].Merge(&o.H[i])
		}
	}
	t.all.Merge(&o.all)
}
