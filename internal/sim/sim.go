// Package sim provides the low-level simulation primitives shared by the
// DrTM+R hardware substitutes: cacheline geometry, virtual-time clocks and
// shared resources (vtime.go — NIC bandwidth is modelled there, as a backlog
// drained in virtual time), a wall-clock spin for the few real-time paths,
// and deterministic seeded randomness for workloads and failure injection.
//
// The rest of the repository treats this package as "the hardware": the HTM
// engine and the RDMA verb layer both express their timing and granularity
// in terms of sim constants so that experiments can tune the simulated
// machine in one place.
package sim

import (
	"runtime"
	"time"
)

// CachelineSize is the conflict-detection and RDMA-atomicity granularity,
// matching the 64-byte cachelines of the paper's Xeon E5-2650 v3.
const CachelineSize = 64

// CachelineShift is log2(CachelineSize).
const CachelineShift = 6

// LineOf returns the cacheline index containing byte offset off.
func LineOf(off uintptr) uint64 { return uint64(off) >> CachelineShift }

// LinesSpanned returns how many cachelines the byte range [off, off+n)
// touches. n == 0 spans zero lines.
func LinesSpanned(off, n uintptr) int {
	if n == 0 {
		return 0
	}
	first := LineOf(off)
	last := LineOf(off + n - 1)
	return int(last-first) + 1
}

// AlignUp rounds n up to the next multiple of CachelineSize.
func AlignUp(n int) int {
	return (n + CachelineSize - 1) &^ (CachelineSize - 1)
}

// Spin waits for roughly d of wall-clock time, yielding to the scheduler on
// every iteration. Latency modelling uses virtual time (see vtime.go); Spin
// remains for host waits on another goroutine's progress (a cleanup, a
// detector pass, a new configuration) and the front door's modelled storage
// fetch, where yielding is the whole point on an oversubscribed host.
func Spin(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	if d >= 100*time.Microsecond {
		time.Sleep(d) //drtmr:allow virtualtime Spin is the wall-clock delay primitive itself; callers pass virtual durations
		return
	}
	deadline := nanotime() + int64(d)
	for nanotime() < deadline {
		runtime.Gosched()
	}
}

//drtmr:allow virtualtime nanotime backs the spin-wait deadline, the one legitimate wall-clock read in sim
func nanotime() int64 { return time.Now().UnixNano() }
