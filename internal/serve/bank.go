package serve

import (
	"encoding/binary"
	"fmt"
	"time"

	"drtmr"
	"drtmr/internal/bench/smallbank"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// The bank stored procedures mirror the SmallBank bench transactions over
// the wire: fixed little-endian uint64 argument tuples, executed via
// smallbank.Execute on a worker homed where the first account lives.
//
//	payment  acct1 u64 | acct2 u64 | amount u64   SendPayment
//	deposit  acct  u64 | amount u64               DepositChecking
//	balance  acct  u64                            Balance (read-only);
//	                                              reply: checking+savings u64
//	audit    start u64 | span u64                 read-only sweep over span
//	                                              accounts (wrapping); reply:
//	                                              grand total u64
//
// audit is the deliberately expensive read-only procedure: span record
// pairs per transaction plus a modeled cold-scan fetch of auditColdFetch
// per record, so its wall service time dominates both the wire round trip
// and any scheduler hop — the workload that saturates the server's
// executor pool in the overload figure rather than the loopback RTT.

// auditMaxSpan caps an audit sweep (read-set size, and the wire reply stays
// a single u64 regardless).
const auditMaxSpan = 4096

// auditColdFetch is the modeled per-record storage-miss latency an audit
// sweep pays after its transactional read (NVMe-class, ~100µs). It exists
// so audit service time is a property of the workload, not of the host:
// the in-memory sweep alone is pure CPU, and on a small host that makes
// the *scheduler* the bottleneck — requests back up invisibly in socket
// buffers and run queues instead of the server's FIFO, and the admission
// watermark never sees the overload it is there to manage. A wall-clock
// block (sim.Spin wall-sleeps at this magnitude) parks the executor
// goroutine instead, so queue depth measures real backlog on any machine.
const auditColdFetch = 100 * time.Microsecond

// BankProcs sets the bank procedures' per-procedure knobs: the payment
// procedure's commit protocol ("" = engine default, "drtmr", "farm").
type BankProcs struct {
	PaymentProtocol string
}

// OpenBank opens a drtmr cluster shaped for cfg (cfg.Partitioner wired in)
// and loads the SmallBank tables on every shard's primary and backups.
func OpenBank(cfg smallbank.Config, replicas int) (*drtmr.DB, error) {
	db, err := drtmr.Open(drtmr.Options{
		Nodes:       cfg.Nodes,
		Replicas:    replicas,
		MemBytes:    cfg.MemBytes(replicas),
		Partitioner: cfg.Partitioner(),
	})
	if err != nil {
		return nil, err
	}
	if err := smallbank.LoadCluster(db.Cluster(), cfg); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

func argU64(args []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(args[8*i:])
}

// RegisterBank registers the three bank procedures on s. cfg must match the
// DB the server wraps (OpenBank), since it derives the home-node routing.
func RegisterBank(s *Server, cfg smallbank.Config, p BankProcs) error {
	part := cfg.Partitioner()
	home := func(args []byte) (int, bool) {
		if len(args) < 8 {
			return 0, false
		}
		return int(part(smallbank.TableChecking, argU64(args, 0))), true
	}
	procs := []Proc{
		{
			Name:     "payment",
			Protocol: p.PaymentProtocol,
			Home:     home,
			Fn: func(w *txn.Worker, args []byte) ([]byte, error) {
				if len(args) != 24 {
					return nil, fmt.Errorf("%w: payment wants 24 bytes, got %d", errBadArgs, len(args))
				}
				err := smallbank.Execute(w, smallbank.Params{
					Type:   smallbank.TxSendPayment,
					Acct1:  argU64(args, 0),
					Acct2:  argU64(args, 1),
					Amount: argU64(args, 2),
				})
				return nil, err
			},
		},
		{
			Name: "deposit",
			Home: home,
			Fn: func(w *txn.Worker, args []byte) ([]byte, error) {
				if len(args) != 16 {
					return nil, fmt.Errorf("%w: deposit wants 16 bytes, got %d", errBadArgs, len(args))
				}
				err := smallbank.Execute(w, smallbank.Params{
					Type:   smallbank.TxDepositChecking,
					Acct1:  argU64(args, 0),
					Amount: argU64(args, 1),
				})
				return nil, err
			},
		},
		{
			Name: "balance",
			Home: home,
			Fn: func(w *txn.Worker, args []byte) ([]byte, error) {
				if len(args) != 8 {
					return nil, fmt.Errorf("%w: balance wants 8 bytes, got %d", errBadArgs, len(args))
				}
				acct := argU64(args, 0)
				var total uint64
				err := w.RunReadOnly(func(tx *txn.Txn) error {
					c, err := tx.Read(smallbank.TableChecking, acct)
					if err != nil {
						return err
					}
					sv, err := tx.Read(smallbank.TableSavings, acct)
					if err != nil {
						return err
					}
					total = smallbank.DecBalance(c) + smallbank.DecBalance(sv)
					return nil
				})
				if err != nil {
					return nil, err
				}
				return binary.LittleEndian.AppendUint64(nil, total), nil
			},
		},
		{
			Name: "audit",
			Home: home,
			Fn: func(w *txn.Worker, args []byte) ([]byte, error) {
				if len(args) != 16 {
					return nil, fmt.Errorf("%w: audit wants 16 bytes, got %d", errBadArgs, len(args))
				}
				start, span := argU64(args, 0), argU64(args, 1)
				if span == 0 || span > auditMaxSpan {
					return nil, fmt.Errorf("%w: audit span %d outside [1,%d]", errBadArgs, span, auditMaxSpan)
				}
				total := uint64(cfg.AccountsPerNode * cfg.Nodes)
				var sum uint64
				err := w.RunReadOnly(func(tx *txn.Txn) error {
					sum = 0
					for i := uint64(0); i < span; i++ {
						acct := (start + i) % total
						c, err := tx.Read(smallbank.TableChecking, acct)
						if err != nil {
							return err
						}
						sv, err := tx.Read(smallbank.TableSavings, acct)
						if err != nil {
							return err
						}
						sum += smallbank.DecBalance(c) + smallbank.DecBalance(sv)
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				// The modeled cold fetch: paid once per committed sweep (not
				// per retry), after the serializable read so it never holds
				// engine state while parked.
				sim.Spin(time.Duration(span) * auditColdFetch)
				return binary.LittleEndian.AppendUint64(nil, sum), nil
			},
		},
	}
	for _, pr := range procs {
		if err := s.Register(pr); err != nil {
			return err
		}
	}
	return nil
}

// EncPayment encodes payment args.
func EncPayment(acct1, acct2, amount uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, acct1)
	b = binary.LittleEndian.AppendUint64(b, acct2)
	return binary.LittleEndian.AppendUint64(b, amount)
}

// EncDeposit encodes deposit args.
func EncDeposit(acct, amount uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, acct)
	return binary.LittleEndian.AppendUint64(b, amount)
}

// EncBalanceReq encodes balance args.
func EncBalanceReq(acct uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, acct)
}

// EncAudit encodes audit args.
func EncAudit(start, span uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, start)
	return binary.LittleEndian.AppendUint64(b, span)
}
