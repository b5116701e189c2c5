package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"drtmr/internal/obs"
)

// usage is what one measured call cost this process.
type usage struct {
	wall, user, sys time.Duration
	mallocs         uint64
	gcCycles        uint32
	heapSys         uint64
}

func (u usage) cpu() time.Duration { return u.user + u.sys }

// minus removes a calibration cost (the same call with no work in it).
func (u usage) minus(c usage) usage {
	u.wall -= c.wall
	u.user -= c.user
	u.sys -= c.sys
	u.mallocs -= min(c.mallocs, u.mallocs)
	return u
}

func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// measure runs fn and reports its wall time, process CPU time and heap
// allocations. It collects garbage first so the previous run's dead arenas
// are not swept on this run's clock.
func measure(fn func()) usage {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, s0 := rusage()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	u1, s1 := rusage()
	runtime.ReadMemStats(&m1)
	return usage{
		wall: wall, user: u1 - u0, sys: s1 - s0,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
		heapSys:  m1.HeapSys,
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sortedQuantile(s, 0.5)
}

// sortedQuantile is the q-quantile of sorted samples, interpolated between
// neighbours; 0 for no samples.
func sortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// bucketSpan is one non-empty histogram bucket.
type bucketSpan struct {
	lo, hi float64 // value range covered, hi exclusive
	n      float64
}

func buckets(h *obs.Histogram) []bucketSpan {
	var bs []bucketSpan
	h.Fold(func(b int, c uint64) {
		bs = append(bs, bucketSpan{float64(obs.BucketLower(b)), float64(obs.BucketUpper(b) + 1), float64(c)})
	})
	return bs
}

// quantile is the q-quantile of h, interpolated inside the bucket that holds
// it. obs.Histogram.Quantile answers at bucket resolution (≈3 %), and the
// cost model makes virtual latencies cluster on a few exact values, so the
// stock quantile reads the same to the last digit on most runs and jumps a
// whole bucket on the rest; spreading each bucket's count evenly over its
// range gives a value that moves with the counts.
func quantile(h *obs.Histogram, q float64) float64 {
	rank := q * float64(h.Count())
	var seen float64
	for _, b := range buckets(h) {
		if seen+b.n >= rank {
			return b.lo + (rank-seen)/b.n*(b.hi-b.lo)
		}
		seen += b.n
	}
	return float64(h.Max())
}

// interquartileMean is the mean of the middle half of h (ranks 25 %–75 %),
// buckets interpolated as in quantile. It stands in for the median as the
// "typical" latency: with latencies sitting on a handful of cost-model
// constants, the median lands on whichever constant straddles rank 50 % and
// flips between two of them from seed to seed (8.45 ↔ 9.47 µs on TPC-C),
// while the mean over the middle half moves only by the few percent of mass
// that changes sides.
func interquartileMean(h *obs.Histogram) float64 {
	n := float64(h.Count())
	lo, hi := 0.25*n, 0.75*n
	var seen, sum float64
	for _, b := range buckets(h) {
		from, to := max(seen, lo), min(seen+b.n, hi)
		if to > from {
			// Ranks from..to of this bucket span this share of its range.
			a := b.lo + (from-seen)/b.n*(b.hi-b.lo)
			z := b.lo + (to-seen)/b.n*(b.hi-b.lo)
			sum += (to - from) * (a + z) / 2
		}
		seen += b.n
	}
	if hi <= lo {
		return 0
	}
	return sum / (hi - lo)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
