package serve

import (
	"errors"
	"math"
	"time"

	"drtmr/internal/obs"
	"drtmr/internal/serve/client"
	"drtmr/internal/sim"
)

// FleetOptions shapes an open-loop client fleet: arrivals come from a
// Poisson process at Rate regardless of how the server is doing (no
// coordinated omission — a slow server faces the same offered load), with
// Zipfian key skew over the bank's accounts.
type FleetOptions struct {
	// Addr is the drtmr-serve TCP address.
	Addr string
	// Users is the number of concurrent client goroutines (-fleet N). It
	// bounds in-flight requests, not the arrival rate: arrivals keep their
	// schedule and queue for a free user, and latency is measured from the
	// scheduled arrival, so user starvation shows up as latency.
	Users int
	// Rate is the offered load in calls/second (-rate R). 0 means
	// closed-loop: each user issues back-to-back.
	Rate float64
	// Calls is the total number of calls to issue.
	Calls int
	// Skew is the Zipf theta over accounts (-skew z; 0 = uniform).
	Skew float64
	// Accounts is the key-space size (AccountsPerNode × Nodes).
	Accounts int
	// Deadline is the per-request deadline handed to the server (0 = none).
	Deadline time.Duration
	// ReadFrac / DepositFrac / AuditFrac split the mix: balance reads,
	// deposit credits, audit sweeps, remainder payments.
	ReadFrac, DepositFrac, AuditFrac float64
	// AuditSpan is the accounts per audit sweep (default 256). Audits are
	// the expensive calls: span record pairs each, so service time — not
	// the wire — is what saturates under audit-heavy mixes.
	AuditSpan int
	// Seed makes the arrival schedule and key sequence reproducible.
	Seed uint64
}

// FleetResult is the fleet's accounting. Every issued call lands in exactly
// one outcome bucket; Dropped is the difference between Offered and the
// bucket sum and must be zero — a nonzero value means a request vanished
// without a typed answer.
type FleetResult struct {
	Offered      uint64
	OK           uint64
	ShedBusy     uint64 // typed ServerBusy (admission shed)
	ShedDeadline uint64 // typed Deadline (expired in queue) or socket timeout
	BadRequest   uint64
	Errors       uint64 // transport/server errors (connection died, ...)
	Dropped      uint64

	// Lat is the committed calls' sojourn time to completion (wall ns): from
	// the *scheduled* arrival under an open loop (queueing for a user slot,
	// the wire, admission, the server queue and execution all count), from
	// the send under a closed loop (Rate 0), where a call is due whenever its
	// user is free.
	Lat     obs.Histogram
	Elapsed time.Duration
}

// call is one scheduled arrival: what to send and when it was due.
type fleetCall struct {
	proc string
	args []byte
	due  time.Time
}

// RunFleet drives one open-loop load run against a live server.
func RunFleet(o FleetOptions) FleetResult {
	if o.Users <= 0 {
		o.Users = 8
	}
	if o.Accounts <= 0 {
		o.Accounts = 1000
	}
	cl := client.New(client.Options{Addr: o.Addr, MaxConns: o.Users, Deadline: o.Deadline})
	defer cl.Close()

	rng := sim.NewRand(o.Seed ^ 0xF1EE7)
	var res FleetResult

	type tally struct {
		ok, shedBusy, shedDeadline, badReq, errs uint64
		lat                                      obs.Histogram
	}
	tallies := make([]tally, o.Users)

	// The arrival queue holds every not-yet-picked-up call, so the pacer
	// never blocks on slow users (open loop).
	queue := make(chan fleetCall, o.Calls+1)
	start := now()
	due := start
	for i := 0; i < o.Calls; i++ {
		if o.Rate > 0 {
			// Poisson interarrival: Exp(rate) = -ln(U)/rate.
			gap := -math.Log(1-rng.Float64()) / o.Rate
			due = due.Add(time.Duration(gap * float64(time.Second)))
		}
		acct1 := uint64(rng.Zipf(o.Accounts, o.Skew))
		c := fleetCall{due: due}
		switch p := rng.Float64(); {
		case p < o.ReadFrac:
			c.proc, c.args = "balance", EncBalanceReq(acct1)
		case p < o.ReadFrac+o.DepositFrac:
			c.proc, c.args = "deposit", EncDeposit(acct1, uint64(1+rng.Intn(100)))
		case p < o.ReadFrac+o.DepositFrac+o.AuditFrac:
			span := o.AuditSpan
			if span <= 0 {
				span = 256
			}
			// Sweeps start uniformly, not at the Zipf-hot keys: an audit
			// covers a range, and uniform starts spread the expensive calls
			// across every node's executor pool instead of piling them all
			// onto the hot shard.
			c.proc, c.args = "audit", EncAudit(uint64(rng.Intn(o.Accounts)), uint64(span))
		default:
			acct2 := uint64(rng.Zipf(o.Accounts, o.Skew))
			if acct2 == acct1 {
				acct2 = (acct1 + 1) % uint64(o.Accounts)
			}
			c.proc, c.args = "payment", EncPayment(acct1, acct2, uint64(1+rng.Intn(100)))
		}
		queue <- c
	}
	close(queue)
	res.Offered = uint64(o.Calls)

	done := make(chan struct{})
	for u := 0; u < o.Users; u++ {
		go func(t *tally) {
			defer func() { done <- struct{}{} }()
			for c := range queue {
				sleep(c.due.Sub(now())) // hold to the arrival schedule
				from := c.due
				if o.Rate <= 0 {
					from = now()
				}
				_, err := cl.Call(c.proc, c.args)
				switch {
				case err == nil:
					t.ok++
					t.lat.Record(since(from).Nanoseconds())
				case client.IsBusy(err):
					t.shedBusy++
				case client.IsDeadline(err):
					t.shedDeadline++
				default:
					var re *client.RequestError
					if errors.As(err, &re) {
						t.badReq++
					} else {
						t.errs++
					}
				}
			}
		}(&tallies[u])
	}
	for u := 0; u < o.Users; u++ {
		<-done
	}
	res.Elapsed = since(start)
	for i := range tallies {
		t := &tallies[i]
		res.OK += t.ok
		res.ShedBusy += t.shedBusy
		res.ShedDeadline += t.shedDeadline
		res.BadRequest += t.badReq
		res.Errors += t.errs
		res.Lat.Merge(&t.lat)
	}
	res.Dropped = res.Offered - (res.OK + res.ShedBusy + res.ShedDeadline + res.BadRequest + res.Errors)
	return res
}
