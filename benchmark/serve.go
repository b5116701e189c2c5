package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"drtmr"
	"drtmr/internal/bench/smallbank"
	"drtmr/internal/check"
	"drtmr/internal/obs"
	"drtmr/internal/serve"
	"drtmr/internal/serve/client"
	"drtmr/internal/serve/wire"
	"drtmr/internal/sim"
)

// The serve workload: real loopback TCP through internal/serve. Closed loop
// (each client sends its next call when the previous reply arrives) because
// callers of a transaction server wait for replies, and because open-loop
// pacing on a 2-core host measures the Go timer, not the server.
//
// serve.RunFleet is not reused: with Rate 0 it stamps every call due at the
// start instant, so its histogram is position-in-run, not latency. The
// driver here times each call around its own round trip.

const (
	serveClients   = 2 // closed-loop clients, one connection each
	serveWatermark = 24
	serveZipf      = 0.5
)

var serveCfg = smallbank.Config{
	AccountsPerNode: 10000,
	Nodes:           benchNodes,
	InitialBalance:  10000,
}

// Call mix: 40 % balance, 20 % deposit, 40 % payment. No audit: its service
// time is a modeled wall-clock sleep.
const (
	procBalance = iota
	procDeposit
	procPayment
)

var procNames = []string{"balance", "deposit", "payment"}

// call is one generated request.
type call struct {
	proc         int
	acct1, acct2 uint64
	amount       uint64
}

func (c call) args() []byte {
	switch c.proc {
	case procBalance:
		return serve.EncBalanceReq(c.acct1)
	case procDeposit:
		return serve.EncDeposit(c.acct1, c.amount)
	default:
		return serve.EncPayment(c.acct1, c.acct2, c.amount)
	}
}

// genCalls draws n calls from the seed.
func genCalls(seed uint64, n int) []call {
	rng := sim.NewRand(seed ^ 0x5E47E)
	accounts := serveCfg.AccountsPerNode * serveCfg.Nodes
	calls := make([]call, n)
	for i := range calls {
		c := call{acct1: uint64(rng.Zipf(accounts, serveZipf)), amount: uint64(1 + rng.Intn(100))}
		switch p := rng.Float64(); {
		case p < 0.4:
			c.proc = procBalance
		case p < 0.6:
			c.proc = procDeposit
		default:
			c.proc = procPayment
			c.acct2 = uint64(rng.Zipf(accounts, serveZipf))
			if c.acct2 == c.acct1 {
				c.acct2 = (c.acct1 + 1) % uint64(accounts)
			}
		}
		calls[i] = c
	}
	return calls
}

// bank is one started server.
type bank struct {
	db   *drtmr.DB
	srv  *serve.Server
	addr string
}

// startBank opens and loads the bank and starts a server on it; with history
// its executors record every committed transaction for the checker.
func startBank(history bool) *bank {
	db, err := serve.OpenBank(serveCfg, 1)
	must(err)
	srv := serve.New(db, serve.Options{
		WorkersPerNode: benchThreads,
		Admission:      serve.AdmissionConfig{MaxQueue: serveWatermark},
		History:        history,
	})
	must(serve.RegisterBank(srv, serveCfg, serve.BankProcs{}))
	addr, err := srv.Start("127.0.0.1:0")
	must(err)
	return &bank{db: db, srv: srv, addr: addr.String()}
}

// total sums every balance straight from the stores. Valid once no call is
// in flight.
func (b *bank) total() uint64 {
	part := serveCfg.Partitioner()
	var sum uint64
	for acct := uint64(0); acct < uint64(serveCfg.AccountsPerNode*serveCfg.Nodes); acct++ {
		for _, id := range []drtmr.TableID{smallbank.TableChecking, smallbank.TableSavings} {
			tbl := b.db.Cluster().Machines[part(id, acct)].Store.Table(id)
			off, ok := tbl.Lookup(acct)
			if !ok {
				panic(fmt.Sprintf("serve: account %d missing from table %d", acct, id))
			}
			sum += smallbank.DecBalance(tbl.ReadValueNonTx(off))
		}
	}
	return sum
}

// clientSpans are the stages of one call as its client sees them.
var clientSpans = []string{"encode", "write", "wait", "decode"}

// loopResult is what one closed-loop run observed.
type loopResult struct {
	lat       []float64 // per OK call, ns, sorted
	ok, shed  int64
	bad, errs int64
	deposited uint64   // Σ amounts of OK deposits
	spanNs    [4]int64 // Σ per clientSpans stage (spans runs only)
}

func (l *loopResult) merge(o *loopResult) {
	l.lat = append(l.lat, o.lat...)
	l.ok, l.shed, l.bad, l.errs = l.ok+o.ok, l.shed+o.shed, l.bad+o.bad, l.errs+o.errs
	l.deposited += o.deposited
	for i := range l.spanNs {
		l.spanNs[i] += o.spanNs[i]
	}
}

// tally files one call's outcome.
func (l *loopResult) tally(c call, err error, took time.Duration) {
	var bad *client.RequestError
	switch {
	case err == nil:
		l.ok++
		l.lat = append(l.lat, float64(took.Nanoseconds()))
		if c.proc == procDeposit {
			l.deposited += c.amount
		}
	case client.IsBusy(err), client.IsDeadline(err):
		l.shed++
	case errors.As(err, &bad):
		l.bad++
	default:
		l.errs++
	}
}

// loopKind selects what a closed-loop run records besides its calls.
type loopKind int

const (
	plainLoop   loopKind = iota // nothing: the measured configuration
	historyLoop                 // the executors record their transactions' history
	spanLoop                    // the clients speak the wire protocol themselves and time each stage
)

// closedLoop drives calls through the server from serveClients clients, each
// on its own connection, each sending its next call when the previous reply
// has arrived, and times every call.
func (b *bank) closedLoop(calls []call, spans bool) loopResult {
	parts := make([]loopResult, serveClients)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int, l *loopResult) {
			defer wg.Done()
			l.lat = make([]float64, 0, len(calls)/serveClients+1)
			if spans {
				b.spanClient(calls, i, l)
				return
			}
			cl := client.New(client.Options{Addr: b.addr, MaxConns: 1})
			defer cl.Close()
			for j := i; j < len(calls); j += serveClients {
				c := calls[j]
				args := c.args()
				t0 := time.Now()
				_, err := cl.Call(procNames[c.proc], args)
				l.tally(c, err, time.Since(t0))
			}
		}(i, &parts[i])
	}
	wg.Wait()
	var res loopResult
	for i := range parts {
		res.merge(&parts[i])
	}
	sort.Float64s(res.lat)
	return res
}

// spanClient is client i of a closed loop with per-stage timing: encode the
// call, write the frame, wait for the reply frame, decode it.
func (b *bank) spanClient(calls []call, i int, l *loopResult) {
	nc, err := net.Dial("tcp", b.addr)
	must(err)
	defer nc.Close()
	var out, in []byte
	for j := i; j < len(calls); j += serveClients {
		c := calls[j]
		t0 := time.Now()
		out, err = wire.AppendCall(out[:0], uint64(j+1), 0, procNames[c.proc], c.args())
		must(err)
		t1 := time.Now()
		err = wire.WriteFrame(nc, out)
		t2 := time.Now()
		var reply []byte
		if err == nil {
			reply, err = wire.ReadFrame(nc, in)
		}
		t3 := time.Now()
		var m wire.Msg
		if err == nil {
			in = reply[:cap(reply)]
			m, err = wire.Decode(reply)
		}
		t4 := time.Now()
		if err == nil && (m.Kind != wire.KindResult || m.Status != wire.StatusOK) {
			err = fmt.Errorf("call %d: kind %d status %d: %s", j, m.Kind, m.Status, m.Detail)
		}
		l.tally(c, err, t4.Sub(t0))
		for s, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
			l.spanNs[s] += d.Nanoseconds()
		}
		if err != nil {
			return // the stream is no longer in step
		}
	}
}

// serveRep is one measured closed-loop run on a fresh server.
type serveRep struct {
	hostRep
	setup   time.Duration
	status  serve.Status  // server counters after its executors stopped
	history []obs.HistTxn // historyLoop only
	loopResult
}

// serveRun starts a server, drives calls through it and stops it. Set-up is
// open and load the bank, start, and stop.
func (o *outcome) serveRun(calls []call, kind loopKind) serveRep {
	var rep serveRep
	t0 := time.Now()
	b := startBank(kind == historyLoop)
	rep.setup = time.Since(t0)
	before := b.total()
	rep.u = measure(func() { rep.loopResult = b.closedLoop(calls, kind == spanLoop) })
	after := b.total()
	t0 = time.Now()
	b.srv.Close()
	rep.setup += time.Since(t0)
	rep.status = b.srv.Snapshot()
	rep.history = b.srv.HistoryTxns()
	if want := before + rep.deposited; after != want {
		o.failf("serve: balances sum to %d after the run, want %d (start %d + deposits %d)", after, want, before, rep.deposited)
	}
	rep.ops = uint64(rep.ok)
	o.Attempted += int64(len(calls))
	o.Failed += int64(len(calls)) - rep.ok
	if n := rep.ok + rep.shed + rep.bad + rep.errs; n != int64(len(calls)) {
		o.failf("serve: accounting does not close: offered %d, ok %d + shed %d + bad %d + errors %d = %d",
			len(calls), rep.ok, rep.shed, rep.bad, rep.errs, n)
	}
	return rep
}

// checkedRun is the serve workload's virtual pass: one closed loop through a
// server whose executors record history. The history feeds the
// serializability checker and carries each transaction's virtual start and
// commit time on its executor's clock, which is the model's view of the
// served calls (the front door itself runs on wall time and adds none):
// calls ÷ the furthest executor clock, and commit latency of the attempt
// that committed.
func (o *outcome) checkedRun(calls []call) virtSample {
	rep := o.serveRun(calls, historyLoop)
	if res := check.Check(rep.history, check.Options{Strict: true}); !res.Ok() {
		o.failf("serve: serializability check: %s", res)
	}
	if int64(len(rep.history)) != rep.ok {
		o.failf("serve: %d transactions in the executors' history, %d calls acknowledged", len(rep.history), rep.ok)
	}
	v := virtSample{lat: new(obs.Histogram)}
	var furthest int64
	for _, t := range rep.history {
		v.lat.Record(t.VEnd - t.VStart)
		furthest = max(furthest, t.VEnd)
	}
	v.tps = share(float64(len(rep.history)), float64(furthest)/1e9)
	return v
}

// runServe runs the serve workload: the checked run, then the host pass's
// closed-loop repetitions, all over TCP.
func runServe(w *workload, seed uint64, sz size, trace bool) outcome {
	out := outcome{Correct: true}
	checkedCalls := genCalls(seed, sz.txns(w.virtTx))
	hostCalls := genCalls(seed+1, sz.txns(w.hostTx))

	if trace {
		ms := newMetricSet(perLayer)
		v := out.checkedRun(checkedCalls)
		ms.set("txn.virt_p50_us", quantile(v.lat, 0.50)/1e3)
		ms.set("txn.virt_p999_us", quantile(v.lat, 0.999)/1e3)
		base := out.serveRun(hostCalls, plainLoop)
		spans := out.serveRun(hostCalls, spanLoop)
		serveMetrics(ms, base, spans)
		cpuPerCall := func(r serveRep) float64 { return r.u.cpu().Seconds() / float64(r.ok) }
		ms.set("obs.trace_overhead_pct", 100*(cpuPerCall(spans)/cpuPerCall(base)-1))
		processMetrics(ms, base.u)
		runProbes(ms, sz.probe)
		// The server publishes no per-phase counters and no engine trace;
		// the other workloads cover those layers.
		for _, layer := range []string{"txn.", "htm.", "rdma.", "trace.", "virt."} {
			ms.zero(layer)
		}
		out.finish(ms)
		return out
	}

	ms := newMetricSet(endToEnd)
	virtMetrics(ms, []virtSample{out.checkedRun(checkedCalls)})
	var reps []serveRep
	for i := 0; i < sz.reps; i++ {
		reps = append(reps, out.serveRun(hostCalls, plainLoop))
	}
	host := make([]hostRep, len(reps))
	for i, r := range reps {
		host[i] = r.hostRep
	}
	hostMetrics(ms, host, medianOf(reps, func(r serveRep) float64 { return r.setup.Seconds() }))
	out.notef("client-observed call latency: p50 %.1f us, p99 %.1f us (median repetition, %d calls each)",
		medianOf(reps, func(r serveRep) float64 { return sortedQuantile(r.lat, 0.50) / 1e3 }),
		medianOf(reps, func(r serveRep) float64 { return sortedQuantile(r.lat, 0.99) / 1e3 }), len(hostCalls))
	out.finish(ms)
	return out
}

// serveMetrics reports the front door's own rows: client-observed latency
// against the execution time the server reports, so the difference is wire,
// admission, queue and executor hand-off.
func serveMetrics(ms *metricSet, base, spans serveRep) {
	p50 := sortedQuantile(base.lat, 0.50) / 1e3
	ms.set("serve.call_p50_us", p50)
	ms.set("serve.call_p99_us", sortedQuantile(base.lat, 0.99)/1e3)
	var calls, service float64
	for _, p := range base.status.Procs {
		calls += float64(p.Count)
		service += float64(p.Count) * p.P50Us
	}
	service = share(service, calls)
	ms.set("serve.service_p50_us", service)
	ms.set("serve.overhead_p50_us", p50-service)
	adm := base.status.Admission
	offered := float64(base.ok + base.shed + base.bad + base.errs)
	ms.set("serve.shed_share", share(float64(adm.ShedBusy+adm.ShedHopeless+adm.ExpiredQueued), offered))
	ms.set("serve.retries_per_call", share(float64(base.status.Retries), offered))
	ms.set("txn.retries", share(float64(base.status.Retries), float64(base.status.Committed)))
	ms.set("txn.abort_rate", share(float64(base.status.Aborts), float64(base.status.Aborts+base.status.Committed)))
	ms.set("txn.fallback_share", share(float64(base.status.Fallbacks), float64(base.status.Committed)))
	for i, s := range clientSpans {
		ms.set("serve.client_"+s+"_ns", share(float64(spans.spanNs[i]), float64(spans.ok)))
	}
}
