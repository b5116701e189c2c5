package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"drtmr/internal/bench/smallbank"
	"drtmr/internal/check"
	"drtmr/internal/serve/client"
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
// shed with typed ServerBusy while everything still gets an answer.
func TestAdmissionShedsAtOverload(t *testing.T) {
	cfg := smallbank.Config{AccountsPerNode: 500, Nodes: 2, InitialBalance: 10000}
	_, addr := startBank(t, cfg,
		Options{WorkersPerNode: 1, Admission: AdmissionConfig{MaxQueue: 2}}, BankProcs{})
	res := RunFleet(FleetOptions{
		Addr:     addr,
		Users:    64,
		Calls:    3000,
		Accounts: cfg.AccountsPerNode * cfg.Nodes,
		Seed:     11,
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
		prev = st
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			if _, err := cl.Call("payment", EncPayment(uint64(i), uint64(i+1), 1)); err != nil {
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
					_, _ = cl.Call("hot", nil)
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
