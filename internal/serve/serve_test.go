package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtmr/internal/bench/smallbank"
	"drtmr/internal/check"
	"drtmr/internal/serve/client"
	"drtmr/internal/serve/wire"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// startBank boots a loaded bank cluster and a server on a loopback port.
func startBank(t *testing.T, cfg smallbank.Config, o Options, procs BankProcs, extra ...Proc) (*Server, string) {
	t.Helper()
	db, err := OpenBank(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, o)
	if err := RegisterBank(s, cfg, procs); err != nil {
		t.Fatal(err)
	}
	for _, p := range extra {
		if err := s.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr.String()
}

// TestServeGateEndToEnd is the CI serve gate: an open-loop fleet drives
// >= 10k transactions over real TCP, every request gets a typed answer
// (zero silent drops), money is conserved, and the recorded history passes
// the strict-serializability checker.
func TestServeGateEndToEnd(t *testing.T) {
	cfg := smallbank.Config{
		AccountsPerNode: 2000,
		Nodes:           3,
		RemoteProb:      0.1,
		InitialBalance:  10000,
	}
	s, addr := startBank(t, cfg, Options{WorkersPerNode: 2, History: true}, BankProcs{})

	const calls = 10500
	res := RunFleet(FleetOptions{
		Addr:     addr,
		Users:    32,
		Calls:    calls,
		Skew:     0.9,
		Accounts: cfg.AccountsPerNode * cfg.Nodes,
		ReadFrac: 0.2, // payments conserve money; no deposits so the total is invariant
		Seed:     7,
	})
	if res.Dropped != 0 {
		t.Fatalf("%d requests dropped without a typed answer: %+v", res.Dropped, res)
	}
	if res.Errors != 0 || res.BadRequest != 0 {
		t.Fatalf("unexpected errors: %+v", res)
	}
	if res.OK < 10000 {
		t.Fatalf("only %d calls committed (want >= 10000): %+v", res.OK, res)
	}

	// Conservation: payments move money between checking accounts and
	// balance reads touch nothing, so the grand total must be exactly the
	// loaded amount.
	cl := client.New(client.Options{Addr: addr, MaxConns: 4})
	defer cl.Close()
	var total uint64
	for a := 0; a < cfg.AccountsPerNode*cfg.Nodes; a++ {
		reply, err := cl.Call("balance", EncBalanceReq(uint64(a)))
		if err != nil {
			t.Fatalf("balance(%d): %v", a, err)
		}
		total += binary.LittleEndian.Uint64(reply)
	}
	want := uint64(cfg.AccountsPerNode*cfg.Nodes) * cfg.InitialBalance * 2
	if total != want {
		t.Fatalf("money not conserved: total %d, want %d", total, want)
	}

	s.Close() // quiesce workers so the history is safe to read
	hist := s.HistoryTxns()
	if len(hist) < 10000 {
		t.Fatalf("history has %d txns (want >= 10000)", len(hist))
	}
	r := check.Check(hist, check.Options{Strict: true})
	if !r.Ok() {
		t.Fatalf("strict serializability violated: %v", r)
	}
	t.Logf("gate: %d committed, %d shed, checker: %v", res.OK, res.ShedBusy, r)
}

// TestAdmissionShedsAtOverload floods a tiny watermark: the controller must
// shed with typed ServerBusy while everything still gets an answer. A few
// audits park their executor on the host (auditColdFetch), so the backlog
// reaches the server's queue on any number of CPUs; with only in-memory
// calls a one-CPU host runs reader and executor in turn and the flood waits
// in socket buffers, where the watermark cannot see it.
func TestAdmissionShedsAtOverload(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 500, Nodes: 2, InitialBalance: 10000}
	s, addr := startBank(t, cfg,
		Options{WorkersPerNode: 1, Admission: AdmissionConfig{MaxQueue: 2}}, BankProcs{})
	res := RunFleet(FleetOptions{
		Addr:      addr,
		Users:     64,
		Calls:     3000,
		Accounts:  cfg.AccountsPerNode * cfg.Nodes,
		AuditFrac: 0.05,
		AuditSpan: 4,
		Seed:      11,
	})
	if res.Dropped != 0 {
		t.Fatalf("%d dropped: %+v", res.Dropped, res)
	}
	if res.ShedBusy == 0 {
		t.Fatalf("watermark 2 under 64 users shed nothing: %+v", res)
	}
	if res.OK == 0 {
		t.Fatalf("shedding starved all work: %+v", res)
	}
	t.Logf("overload: %d ok, %d shed busy, %d shed deadline", res.OK, res.ShedBusy, res.ShedDeadline)

	// Every admission shed reaches the snapshot's abort cells, whichever
	// reader goroutine refused it.
	s.Close()
	st := s.Snapshot()
	var cells uint64
	for _, c := range st.AbortTop {
		if c.Reason == txn.AbortServerBusy.String() && c.Stage == txn.StageName(txn.StageAdmission) {
			cells += c.Count
		}
	}
	if want := st.Admission.ShedBusy + st.Admission.ShedHopeless; cells != want || want != res.ShedBusy {
		t.Fatalf("server-busy@admission cells sum to %d, admission shed %d, fleet saw %d", cells, want, res.ShedBusy)
	}
}

// TestAdmissionDisabledQueuesEverything is the ablation sanity check: with
// -admission off nothing is ever shed, whatever the backlog.
func TestAdmissionDisabledQueuesEverything(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 500, Nodes: 2, InitialBalance: 10000}
	_, addr := startBank(t, cfg,
		Options{WorkersPerNode: 1, Admission: AdmissionConfig{Disabled: true, MaxQueue: 2}}, BankProcs{})
	res := RunFleet(FleetOptions{
		Addr:     addr,
		Users:    32,
		Calls:    800,
		Accounts: cfg.AccountsPerNode * cfg.Nodes,
		Seed:     13,
	})
	if res.ShedBusy != 0 || res.ShedDeadline != 0 {
		t.Fatalf("disabled admission shed requests: %+v", res)
	}
	if res.OK != res.Offered {
		t.Fatalf("not all calls committed: %+v", res)
	}
}

// TestClosedLoopLatencyIsPerCall: with Rate 0 every call is due at the
// start, so a closed loop must time each call from its send, not from the
// start of the run. Each user's calls run one after another, so a call takes
// about Elapsed/(Calls/Users), and the median must sit far below Elapsed/2,
// where position-in-run would put it.
func TestClosedLoopLatencyIsPerCall(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 500, Nodes: 2, InitialBalance: 10000}
	_, addr := startBank(t, cfg, Options{WorkersPerNode: 1}, BankProcs{})
	res := RunFleet(FleetOptions{
		Addr:     addr,
		Users:    2,
		Calls:    400,
		Accounts: cfg.AccountsPerNode * cfg.Nodes,
		ReadFrac: 0.5,
		Seed:     17,
	})
	if res.OK != res.Offered {
		t.Fatalf("not all calls committed: %+v", res)
	}
	p50 := time.Duration(res.Lat.Quantile(0.5))
	t.Logf("p50 %v over %v", p50, res.Elapsed)
	if p50 > res.Elapsed/20 {
		t.Fatalf("closed-loop p50 %v of a %v run: latency counts the wait for earlier calls", p50, res.Elapsed)
	}
}

// TestDeadlineSheds sends an impossible deadline: the server must answer
// with the typed Deadline/ServerBusy taxonomy, not hang or drop.
func TestDeadlineSheds(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 500, Nodes: 2, InitialBalance: 10000}
	_, addr := startBank(t, cfg, Options{WorkersPerNode: 1}, BankProcs{})
	cl := client.New(client.Options{Addr: addr, MaxConns: 4})
	defer cl.Close()
	// Warm the EWMA so deadline-aware shedding has an estimate.
	for i := 0; i < 50; i++ {
		if _, err := cl.Call("deposit", EncDeposit(uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	sawTyped := false
	for i := 0; i < 200; i++ {
		_, err := cl.CallDeadline("payment", EncPayment(1, 2, 1), time.Nanosecond)
		if err == nil {
			continue // fast enough to beat even 1ns measured at dequeue
		}
		if !client.IsDeadline(err) && !client.IsBusy(err) {
			t.Fatalf("call %d: untyped deadline failure: %v", i, err)
		}
		sawTyped = true
	}
	if !sawTyped {
		t.Skip("server beat a 1ns deadline 200 times; nothing to assert")
	}
}

// TestUnknownProcAndBadArgs exercises the BadRequest path.
func TestUnknownProcAndBadArgs(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 100, Nodes: 2, InitialBalance: 10}
	_, addr := startBank(t, cfg, Options{}, BankProcs{})
	cl := client.New(client.Options{Addr: addr})
	defer cl.Close()
	var re *client.RequestError
	if _, err := cl.Call("no-such-proc", nil); !errors.As(err, &re) {
		t.Fatalf("unknown proc: got %v, want RequestError", err)
	}
	if _, err := cl.Call("payment", []byte{1, 2, 3}); !errors.As(err, &re) {
		t.Fatalf("short args: got %v, want RequestError", err)
	}
	// The connection must still be usable after rejected requests.
	if _, err := cl.Call("balance", EncBalanceReq(1)); err != nil {
		t.Fatalf("healthy call after rejects: %v", err)
	}
}

// TestOversizeReplyAnswered: a committed procedure whose reply does not fit
// a frame gets a typed answer that says so, at once, not a socket timeout.
func TestOversizeReplyAnswered(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 100, Nodes: 2, InitialBalance: 10}
	big := Proc{Name: "big", Fn: func(*txn.Worker, []byte) ([]byte, error) {
		return make([]byte, wire.MaxFrame+1), nil
	}}
	_, addr := startBank(t, cfg, Options{}, BankProcs{}, big)
	cl := client.New(client.Options{Addr: addr, Deadline: time.Second})
	defer cl.Close()
	start := time.Now()
	_, err := cl.Call("big", nil)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Detail != replyTooLarge {
		t.Fatalf("oversize reply: got %T %v, want ServerError %q", err, err, replyTooLarge)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("oversize reply answered after %v, past the call's deadline", took)
	}
	// The connection is still good.
	if _, err := cl.Call("balance", EncBalanceReq(1)); err != nil {
		t.Fatalf("call after the oversize reply: %v", err)
	}
}

// TestShedReachesClientTyped: an admission shed crosses the wire as the
// *txn.Error the server built, its Reason, Stage, Site and label intact.
// One request holds the only queue slot while a second one arrives.
func TestShedReachesClientTyped(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 100, Nodes: 2, InitialBalance: 10}
	held, release := make(chan struct{}), make(chan struct{})
	onNode1 := func([]byte) (int, bool) { return 1, true }
	hold := Proc{Name: "hold", Home: onNode1, Fn: func(*txn.Worker, []byte) ([]byte, error) {
		close(held)
		<-release
		return nil, nil
	}}
	probe := Proc{Name: "probe", Home: onNode1, Fn: func(*txn.Worker, []byte) ([]byte, error) {
		return nil, nil
	}}
	_, addr := startBank(t, cfg, Options{WorkersPerNode: 1, Admission: AdmissionConfig{MaxQueue: 1}},
		BankProcs{}, hold, probe)
	cl := client.New(client.Options{Addr: addr, MaxConns: 2})
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Call("hold", nil)
		done <- err
	}()
	<-held
	_, err := cl.Call("probe", nil)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held call: %v", err)
	}
	var te *txn.Error
	if !errors.As(err, &te) {
		t.Fatalf("shed: got %T %v, want *txn.Error", err, err)
	}
	want := txn.Error{Reason: txn.AbortServerBusy, Stage: txn.StageAdmission, Site: 1, Detail: "queue depth at watermark"}
	if *te != want {
		t.Fatalf("shed crossed the wire as %+v, want %+v", *te, want)
	}
	if !client.IsBusy(err) || client.IsDeadline(err) {
		t.Fatalf("shed %v: IsBusy %v, IsDeadline %v", err, client.IsBusy(err), client.IsDeadline(err))
	}
}

// TestFramesSplitAndCoalesced drives the reader's frame buffer from a raw
// connection: a Call that arrives one byte per segment, two Calls that
// arrive in one segment, and length prefixes that must close the connection
// before any body is read.
func TestFramesSplitAndCoalesced(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 100, Nodes: 2, InitialBalance: 10}
	_, addr := startBank(t, cfg, Options{}, BankProcs{})
	dial := func() net.Conn {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		return nc
	}
	frame := func(id uint64) []byte {
		t.Helper()
		p, err := wire.AppendCall(nil, id, 0, "balance", EncBalanceReq(id))
		if err != nil {
			t.Fatal(err)
		}
		var f bytes.Buffer
		if err := wire.WriteFrame(&f, p); err != nil {
			t.Fatal(err)
		}
		return f.Bytes()
	}
	// answered reads n Results and returns the IDs they answer.
	answered := func(nc net.Conn, n int) map[uint64]bool {
		t.Helper()
		ids := map[uint64]bool{}
		var buf []byte
		for i := 0; i < n; i++ {
			p, err := wire.ReadFrame(nc, buf)
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, n, err)
			}
			m, err := wire.Decode(p)
			if err != nil || m.Kind != wire.KindResult || m.Status != wire.StatusOK {
				t.Fatalf("reply %d of %d: %+v, err %v", i+1, n, m, err)
			}
			ids[m.ID] = true
		}
		return ids
	}

	nc := dial()
	for _, b := range frame(1) {
		if _, err := nc.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if ids := answered(nc, 1); !ids[1] {
		t.Fatalf("call sent a byte at a time: answered %v, want id 1", ids)
	}
	if _, err := nc.Write(append(frame(2), frame(3)...)); err != nil {
		t.Fatal(err)
	}
	if ids := answered(nc, 2); !ids[2] || !ids[3] {
		t.Fatalf("two calls in one segment: answered %v, want ids 2 and 3", ids)
	}

	// A zero and an over-MaxFrame prefix, with no body behind them: the
	// reader closes the connection instead of waiting for one.
	for _, n := range []uint32{0, wire.MaxFrame + 1} {
		nc := dial()
		if _, err := nc.Write(binary.LittleEndian.AppendUint32(nil, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("prefix %d: read %v, want EOF", n, err)
		}
	}
}

// TestCloseEndsKeptAliveStatusConnections: Close ends an idle kept-alive
// /statusz connection, which otherwise keeps the HTTP server, and through its
// handler the whole cluster, reachable after the server is closed.
func TestCloseEndsKeptAliveStatusConnections(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 100, Nodes: 1, InitialBalance: 1}
	s, _ := startBank(t, cfg, Options{}, BankProcs{})
	httpAddr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", httpAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, "GET /statusz HTTP/1.1\r\nHost: drtmr\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("/statusz: %s, close %v; want 200 on a kept-alive connection", resp.Status, resp.Close)
	}
	s.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("kept-alive /statusz connection after Close: %v, want EOF", err)
	}
}

// TestStatusEndpoints reads the live snapshot over the wire mid-run and
// over HTTP, checking monotonicity and the per-procedure protocol labels.
func TestStatusEndpoints(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 500, Nodes: 2, InitialBalance: 10000}
	// "hot" is a read-modify-write of one record with no home node, so every
	// executor of both nodes runs it; ceding the host between the read and
	// the commit makes concurrent calls overlap however few CPUs there are.
	hot := Proc{Name: "hot", Fn: func(w *txn.Worker, _ []byte) ([]byte, error) {
		return nil, w.Run(func(tx *txn.Txn) error {
			c, err := tx.Read(smallbank.TableChecking, 7)
			if err != nil {
				return err
			}
			sim.Spin(0)
			return tx.Write(smallbank.TableChecking, 7, smallbank.EncBalance(smallbank.DecBalance(c)+1))
		})
	}}
	s, addr := startBank(t, cfg, Options{WorkersPerNode: 2},
		BankProcs{PaymentProtocol: "farm"}, hot)
	httpAddr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(client.Options{Addr: addr, MaxConns: 4})
	defer cl.Close()

	// Every scalar the snapshot carries must be monotone from one snapshot
	// to the next: the embedded engine counters (walked by reflection, so a
	// counter added to txn.Counters is covered), the abort total and the
	// admission count.
	var prev Status
	monotone := func(st Status) {
		t.Helper()
		cur, was := reflect.ValueOf(st.Counters), reflect.ValueOf(prev.Counters)
		for i := 0; i < cur.NumField(); i++ {
			if cur.Field(i).Uint() < was.Field(i).Uint() {
				t.Fatalf("%s went backwards: %d -> %d", cur.Type().Field(i).Name, was.Field(i).Uint(), cur.Field(i).Uint())
			}
		}
		if st.Aborts < prev.Aborts || st.Admission.Admitted < prev.Admission.Admitted {
			t.Fatalf("aborts %d -> %d, admitted %d -> %d", prev.Aborts, st.Aborts, prev.Admission.Admitted, st.Admission.Admitted)
		}
		for i := range prev.Procs {
			if st.Procs[i].Count < prev.Procs[i].Count {
				t.Fatalf("%s count went backwards: %d -> %d", st.Procs[i].Name, prev.Procs[i].Count, st.Procs[i].Count)
			}
		}
		prev = st
	}
	// executed counts the calls that reached an executor: all but sheds.
	var executed atomic.Uint64
	call := func(proc string, args []byte) error {
		_, err := cl.Call(proc, args)
		if !client.IsBusy(err) && !client.IsDeadline(err) {
			executed.Add(1)
		}
		return err
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			if err := call("payment", EncPayment(uint64(i), uint64(i+1), 1)); err != nil {
				t.Fatal(err)
			}
		}
		// A gated run: concurrent "hot" calls abort each other on their one
		// record until the contention manager queues the retries on that
		// key's gate.
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					// Sheds and aborts are fine here; only the counters matter.
					_ = call("hot", nil)
				}
			}()
		}
		wg.Wait()
		raw, err := cl.Status()
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("status JSON: %v\n%s", err, raw)
		}
		monotone(st)
		if round == 4 {
			if st.Committed == 0 {
				t.Fatal("status never saw a commit")
			}
			protos := map[string]string{}
			for _, p := range st.Procs {
				protos[p.Name] = p.Protocol
			}
			if protos["payment"] != "farm" || protos["deposit"] != "" || protos["balance"] != "" {
				t.Fatalf("per-proc protocols wrong: %v", protos)
			}
			if st.Admission.Admitted == 0 {
				t.Fatalf("admission counters empty: %+v", st.Admission)
			}
			var payment *ProcStatus
			for i := range st.Procs {
				if st.Procs[i].Name == "payment" {
					payment = &st.Procs[i]
				}
			}
			if payment == nil || payment.Count == 0 || payment.P99Us <= 0 {
				t.Fatalf("payment histogram empty: %+v", payment)
			}
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/statusz", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/statusz JSON: %v\n%s", err, body)
	}
	monotone(st)
	if st.GateAdmissions == 0 {
		t.Fatalf("/statusz reports no gate admissions after %d aborts on one hot account", st.Aborts)
	}
	// Executors run one transaction at a time: nothing can cover a backoff,
	// so every virtual ns asked for is a ns stalled.
	if st.BackoffStallNanos != st.BackoffNanos || (st.Backoffs == 0) != (st.BackoffNanos == 0) {
		t.Fatalf("/statusz backoffs %d asked %dns stalled %dns", st.Backoffs, st.BackoffNanos, st.BackoffStallNanos)
	}

	// Mid-run the per-procedure counts trail by what executors have not yet
	// published; after Close every executor has published its last requests.
	s.Close()
	st = s.Snapshot()
	monotone(st)
	var counted uint64
	for _, p := range st.Procs {
		counted += p.Count
	}
	if counted != executed.Load() || counted != st.Admission.Admitted {
		t.Fatalf("after Close the procedures count %d calls; %d executed, %d admitted", counted, executed.Load(), st.Admission.Admitted)
	}
}

// TestRegisterValidation covers registry misuse.
func TestRegisterValidation(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 10, Nodes: 2, InitialBalance: 1}
	db, err := OpenBank(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{})
	t.Cleanup(s.Close)
	noop := func(w *txn.Worker, args []byte) ([]byte, error) { return nil, nil }
	if err := s.Register(Proc{Name: "", Fn: noop}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Register(Proc{Name: "x"}); err == nil {
		t.Fatal("nil Fn accepted")
	}
	if err := s.Register(Proc{Name: "x", Fn: noop, Protocol: "bogus"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := s.Register(Proc{Name: "x", Fn: noop}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Proc{Name: "x", Fn: noop}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Proc{Name: "late", Fn: noop}); err == nil {
		t.Fatal("Register after Start accepted")
	}
}
