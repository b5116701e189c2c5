// Wall-clock access for the serve tree, centralized so every use is one of
// a handful of audited sites. internal/serve is on the virtualtime analyzer's
// list like the protocol packages — but unlike them it is a real network
// server: request deadlines, service-time EWMAs, and open-loop arrival
// schedules are wall-time quantities by design. Every helper below carries
// its own //drtmr:allow so a new raw time.Now sneaking in elsewhere in the
// tree still fails TestAnalyzers.
package serve

import "time"

// now returns the current wall-clock instant.
func now() time.Time {
	//drtmr:allow virtualtime serve is a real network server; deadlines and service times are wall time
	return time.Now()
}

// since returns the wall time elapsed since t.
func since(t time.Time) time.Duration {
	//drtmr:allow virtualtime wall-clock service-time and queue-wait measurement for a real server
	return time.Since(t)
}

// sleep blocks the calling goroutine for wall duration d (no-op if d <= 0).
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	//drtmr:allow virtualtime open-loop fleet pacing sleeps real time between scheduled arrivals
	time.Sleep(d)
}
