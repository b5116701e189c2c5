// Quickstart: a three-machine DrTM+R cluster behind the drtmr-serve network
// front door. The example boots an in-process server (a real TCP listener on
// a loopback port, the same code path as cmd/drtmr-serve), connects the Go
// client to it, and runs bank stored procedures over the wire: a deposit, a
// cross-machine payment, and balance reads — every call carrying the typed
// abort taxonomy back if anything goes wrong.
//
// Point it at an already-running server instead with:
//
//	go run ./examples/quickstart -connect 127.0.0.1:7707
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"drtmr/internal/bench/smallbank"
	"drtmr/internal/serve"
	"drtmr/internal/serve/client"
)

func main() {
	connect := flag.String("connect", "", "address of an external drtmr-serve (empty = boot one in-process)")
	flag.Parse()
	if err := run(os.Stdout, *connect); err != nil {
		log.Fatal(err)
	}
}

// run executes the quickstart against addr, or against an in-process server
// when addr is empty (the fallback keeps the example self-contained: no
// separate process to start, but the calls still cross a real TCP socket).
func run(out io.Writer, addr string) error {
	cfg := smallbank.Config{
		AccountsPerNode: 100,
		Nodes:           3,
		InitialBalance:  100,
	}
	if addr == "" {
		db, err := serve.OpenBank(cfg, 3)
		if err != nil {
			return err
		}
		srv := serve.New(db, serve.Options{WorkersPerNode: 2})
		if err := serve.RegisterBank(srv, cfg, serve.BankProcs{}); err != nil {
			return err
		}
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		addr = bound.String()
		fmt.Fprintf(out, "booted in-process drtmr-serve on %s (3 machines, 3-way replication)\n", addr)
	}

	cl := client.New(client.Options{Addr: addr})
	defer cl.Close()

	// Accounts partition by key/AccountsPerNode: account 5 lives on machine
	// 0 and account 105 on machine 1, so the payment below is a distributed
	// transaction — remote lock via RDMA CAS, local HTM commit, replication
	// to the backups — executed server-side by the payment stored procedure.
	const from, to = 5, 105
	if _, err := cl.Call("deposit", serve.EncDeposit(from, 50)); err != nil {
		return fmt.Errorf("deposit: %w", err)
	}
	if _, err := cl.Call("payment", serve.EncPayment(from, to, 25)); err != nil {
		// Aborts come back typed: the *txn.Error the server built, its
		// reason, pipeline stage, site and label intact, not just a string.
		return fmt.Errorf("payment: %w", err)
	}
	for _, acct := range []uint64{from, to} {
		reply, err := cl.Call("balance", serve.EncBalanceReq(acct))
		if err != nil {
			return fmt.Errorf("balance(%d): %w", acct, err)
		}
		fmt.Fprintf(out, "account %d: %d\n", acct, binary.LittleEndian.Uint64(reply))
	}

	// The live status endpoint works mid-run, over the same connection.
	raw, err := cl.Status()
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	fmt.Fprintf(out, "status: %d bytes of live JSON (try /statusz over HTTP for the same view)\n", len(raw))
	return nil
}
