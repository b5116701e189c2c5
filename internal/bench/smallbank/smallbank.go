// Package smallbank implements the SmallBank benchmark (H-Store variant, as
// used in the paper's §7): a simple banking application with two tables
// (checking and savings balances) and six transaction types, four of which
// are read-write and two read-only (Table 5):
//
//	send-payment (SP)          25%  read-write  2 accounts (distributable)
//	amalgamate (AMG)           15%  read-write  2 accounts (distributable)
//	deposit-checking (DC)      15%  read-write  1 account
//	withdraw-from-checking(WC) 15%  read-write  1 account
//	transfer-to-savings (TS)   15%  read-write  1 account
//	balance (BAL)              15%  read-only   1 account
//
// Access is skewed: a few hot accounts receive most requests. The paper's
// distributed-transaction knob is the probability that SP and AMG pick their
// second account on a different machine.
package smallbank

import (
	"encoding/binary"
	"fmt"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// Table IDs.
const (
	TableChecking memstore.TableID = 10
	TableSavings  memstore.TableID = 11
)

// TxType enumerates the six SmallBank procedures.
type TxType int

const (
	TxSendPayment TxType = iota
	TxAmalgamate
	TxDepositChecking
	TxWithdrawChecking
	TxTransferSavings
	TxBalance
	numTxTypes
)

func (t TxType) String() string {
	switch t {
	case TxSendPayment:
		return "send-payment"
	case TxAmalgamate:
		return "amalgamate"
	case TxDepositChecking:
		return "deposit-checking"
	case TxWithdrawChecking:
		return "withdraw-from-checking"
	case TxTransferSavings:
		return "transfer-to-savings"
	case TxBalance:
		return "balance"
	default:
		return fmt.Sprintf("TxType(%d)", int(t))
	}
}

// Mix is the standard transaction mix (percent).
var Mix = [numTxTypes]int{25, 15, 15, 15, 15, 15}

// TypeNames returns the procedure names in TxType order, for indexing
// per-type latency histograms (obs.TypedHist).
func TypeNames() []string {
	names := make([]string, numTxTypes)
	for t := TxType(0); t < numTxTypes; t++ {
		names[t] = t.String()
	}
	return names
}

// Config shapes a SmallBank deployment.
type Config struct {
	// AccountsPerNode is the number of accounts each machine hosts.
	AccountsPerNode int
	// Nodes is the cluster size; account a lives on node a/AccountsPerNode.
	Nodes int
	// RemoteProb is the probability that SP/AMG's second account is on a
	// different machine (the paper sweeps 1%, 5%, 10%).
	RemoteProb float64
	// HotRatio of accounts receive most requests (skew).
	HotFraction float64
	// ReadOnlyFrac, when >0, overrides the standard mix's read-only share:
	// Balance is drawn with this probability and the five read-write types
	// keep their relative weights for the remainder. It also unlocks two
	// read-footprint behaviours the protocol-matrix figure needs: Balance
	// reads a possibly-remote account (RemoteProb), and SendPayment
	// audit-reads the destination's savings record — a record that stays in
	// the read set without ever being written, which is exactly where the
	// commit protocols' verb costs diverge. 0 keeps the standard mix (and
	// its exact draw sequence) untouched.
	ReadOnlyFrac float64
	// InitialBalance per account (both tables).
	InitialBalance uint64
}

// MemBytes is the NVRAM a machine needs for this configuration with each
// record kept on replicas machines: two tables of 128 bytes per account
// (record and hash slot), three times over for slack, per copy, plus the
// machine's log rings (one per node) and 4 MiB of headroom. It is no larger
// than that because every run allocates and clears it afresh: a 32 MiB
// floor made a SmallBank set-up zero 96 MiB it never used, and how much of
// that the process had to fault back in from the OS varied from run to run.
func (c Config) MemBytes(replicas int) int {
	return c.AccountsPerNode*2*128*3*max(replicas, 1) + c.Nodes*cluster.DefaultRingBytes + 4<<20
}

// DefaultConfig mirrors the paper's setup at a laptop-friendly scale.
func DefaultConfig(nodes int) Config {
	return Config{
		AccountsPerNode: 10000,
		Nodes:           nodes,
		RemoteProb:      0.01,
		HotFraction:     0.04,
		InitialBalance:  10000,
	}
}

// Balance values are stored as little-endian uint64 in 16-byte records
// (cents would be fixed-point; the benchmark only needs conservation).
const valueSize = 16

// EncBalance serializes a balance.
func EncBalance(v uint64) []byte {
	b := make([]byte, valueSize)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// DecBalance deserializes a balance.
func DecBalance(b []byte) uint64 { return binary.LittleEndian.Uint64(b[:8]) }

// BalanceOff is the balance field's offset for commutative adds (txn.Add):
// unconditional credits (DepositChecking, the credit half of SendPayment and
// TransferSavings) are delta-shaped — no transaction branches on the value —
// so they commute instead of conflicting on the Zipfian hot accounts.
// Debits stay read-modify-writes: the insufficient-funds check needs the
// balance.
const BalanceOff = 0

// Partitioner returns the shard (= hosting machine) of an account key.
func (c Config) Partitioner() txn.Partitioner {
	per := uint64(c.AccountsPerNode)
	n := uint64(c.Nodes)
	return func(table memstore.TableID, key uint64) cluster.ShardID {
		s := key / per
		if s >= n {
			s = n - 1
		}
		return cluster.ShardID(s)
	}
}

// CreateTables registers the two balance tables on a machine's store.
func CreateTables(store *memstore.Store, c Config) {
	for _, id := range []memstore.TableID{TableChecking, TableSavings} {
		name := "checking"
		if id == TableSavings {
			name = "savings"
		}
		store.CreateTable(id, memstore.TableSpec{
			Name:         name,
			ValueSize:    valueSize,
			ExpectedRows: c.AccountsPerNode * 2,
		})
	}
}

// LoadCluster creates the tables on every machine and loads every shard's
// accounts, at the initial balance, on its primary and its backups. It runs
// before the cluster starts, so it writes the records directly
// (memstore.Table.Load): a load through HTM regions cost most of a run's
// set-up, and drew the spurious aborts the HTM model injects, which are
// meant for the measured run.
func LoadCluster(c *cluster.Cluster, cfg Config) error {
	for _, m := range c.Machines {
		CreateTables(m.Store, cfg)
	}
	cfg0 := c.Coord.Current()
	for s := 0; s < cfg.Nodes; s++ {
		shard := cluster.ShardID(s)
		lo := uint64(s) * uint64(cfg.AccountsPerNode)
		hi := lo + uint64(cfg.AccountsPerNode)
		for _, nd := range append([]rdma.NodeID{cfg0.PrimaryOf(shard)}, cfg0.BackupsOf(shard)...) {
			store := c.Machines[nd].Store
			for key := lo; key < hi; key++ {
				for _, id := range []memstore.TableID{TableChecking, TableSavings} {
					if _, err := store.Table(id).Load(key, EncBalance(cfg.InitialBalance)); err != nil {
						return fmt.Errorf("smallbank load key %d: %w", key, err)
					}
				}
			}
		}
	}
	return nil
}

// Gen draws SmallBank transactions for one worker homed on a machine.
type Gen struct {
	cfg  Config
	home cluster.ShardID
	rng  *sim.Rand
}

// NewGen creates a generator for a worker on machine home.
func NewGen(cfg Config, home cluster.ShardID, seed uint64) *Gen {
	return &Gen{cfg: cfg, home: home, rng: sim.NewRand(seed)}
}

// NextType draws from the standard mix, or — when Config.ReadOnlyFrac is
// set — draws Balance with that probability and one of the five read-write
// types (relative weights preserved) otherwise. The default path keeps its
// exact draw sequence so existing seeded runs replay unchanged.
func (g *Gen) NextType() TxType {
	if g.cfg.ReadOnlyFrac > 0 {
		if g.rng.Bool(g.cfg.ReadOnlyFrac) {
			return TxBalance
		}
		// Read-write weights sum to 85 (Mix minus Balance's 15).
		p := g.rng.Intn(85)
		acc := 0
		for t := 0; t < int(numTxTypes)-1; t++ {
			acc += Mix[t]
			if p < acc {
				return TxType(t)
			}
		}
		return TxSendPayment
	}
	p := g.rng.Intn(100)
	acc := 0
	for t := 0; t < int(numTxTypes); t++ {
		acc += Mix[t]
		if p < acc {
			return TxType(t)
		}
	}
	return TxBalance
}

// account draws a (skewed) account on the given machine.
func (g *Gen) account(shard cluster.ShardID) uint64 {
	base := uint64(shard) * uint64(g.cfg.AccountsPerNode)
	hot := int(float64(g.cfg.AccountsPerNode) * g.cfg.HotFraction)
	if hot < 1 {
		hot = 1
	}
	// 90% of requests hit the hot set (skewed access, §7.1).
	if g.rng.Bool(0.9) {
		return base + uint64(g.rng.Zipf(hot, 0.8))
	}
	return base + uint64(g.rng.Intn(g.cfg.AccountsPerNode))
}

// remoteShard picks a machine other than home.
func (g *Gen) remoteShard() cluster.ShardID {
	if g.cfg.Nodes <= 1 {
		return g.home
	}
	s := cluster.ShardID(g.rng.Intn(g.cfg.Nodes - 1))
	if s >= g.home {
		s++
	}
	return s
}

// Params is one generated transaction.
type Params struct {
	Type   TxType
	Acct1  uint64
	Acct2  uint64
	Amount uint64
	// Distributed reports whether Acct2 is on a different machine.
	Distributed bool
	// AuditRead makes SendPayment read the destination's savings balance
	// (a read-only record in a read-write transaction) before crediting.
	// Set only under Config.ReadOnlyFrac > 0.
	AuditRead bool
}

// Next generates the next transaction's parameters.
func (g *Gen) Next() Params {
	t := g.NextType()
	p := Params{Type: t, Amount: uint64(1 + g.rng.Intn(100))}
	p.Acct1 = g.account(g.home)
	if t == TxBalance && g.cfg.ReadOnlyFrac > 0 && g.rng.Bool(g.cfg.RemoteProb) {
		shard := g.remoteShard()
		p.Acct1 = g.account(shard)
		p.Distributed = shard != g.home
	}
	if t == TxSendPayment || t == TxAmalgamate {
		shard2 := g.home
		if g.rng.Bool(g.cfg.RemoteProb) {
			shard2 = g.remoteShard()
			p.Distributed = shard2 != g.home
		}
		p.Acct2 = g.account(shard2)
		if p.Acct2 == p.Acct1 {
			p.Acct2 = p.Acct1 + 1
			if g.cfg.Partitioner()(TableChecking, p.Acct2) != shard2 {
				p.Acct2 = p.Acct1 - 1
			}
		}
		if t == TxSendPayment && g.cfg.ReadOnlyFrac > 0 {
			p.AuditRead = true
		}
	}
	return p
}

// Execute runs one SmallBank transaction on a DrTM+R worker.
func Execute(w *txn.Worker, p Params) error {
	switch p.Type {
	case TxBalance:
		return w.RunReadOnly(func(tx *txn.Txn) error {
			c, err := tx.Read(TableChecking, p.Acct1)
			if err != nil {
				return err
			}
			s, err := tx.Read(TableSavings, p.Acct1)
			if err != nil {
				return err
			}
			_ = DecBalance(c) + DecBalance(s)
			return nil
		})
	case TxDepositChecking:
		return w.Run(func(tx *txn.Txn) error {
			// Pure credit: a commutative add, no read set at all.
			return tx.Add(TableChecking, p.Acct1, BalanceOff, p.Amount)
		})
	case TxWithdrawChecking:
		return w.Run(func(tx *txn.Txn) error {
			c, err := tx.Read(TableChecking, p.Acct1)
			if err != nil {
				return err
			}
			bal := DecBalance(c)
			if bal < p.Amount {
				return nil // insufficient funds: commit as no-op
			}
			return tx.Write(TableChecking, p.Acct1, EncBalance(bal-p.Amount))
		})
	case TxTransferSavings:
		return w.Run(func(tx *txn.Txn) error {
			c, err := tx.Read(TableChecking, p.Acct1)
			if err != nil {
				return err
			}
			amt := p.Amount
			if DecBalance(c) < amt {
				return nil
			}
			// Debit needs the funds check above; the savings credit is a
			// commutative add.
			if err := tx.Write(TableChecking, p.Acct1, EncBalance(DecBalance(c)-amt)); err != nil {
				return err
			}
			return tx.Add(TableSavings, p.Acct1, BalanceOff, amt)
		})
	case TxSendPayment:
		return w.Run(func(tx *txn.Txn) error {
			c1, err := tx.Read(TableChecking, p.Acct1)
			if err != nil {
				return err
			}
			bal := DecBalance(c1)
			if bal < p.Amount {
				return nil
			}
			if p.AuditRead {
				// Destination standing check: the savings record enters the
				// read set and is never written — the read-only-record case
				// the commit protocols price differently.
				s2, err := tx.Read(TableSavings, p.Acct2)
				if err != nil {
					return err
				}
				_ = DecBalance(s2)
			}
			// The debit needs the funds check; the credit to the (often
			// hot, often remote) destination is a commutative add.
			if err := tx.Write(TableChecking, p.Acct1, EncBalance(bal-p.Amount)); err != nil {
				return err
			}
			return tx.Add(TableChecking, p.Acct2, BalanceOff, p.Amount)
		})
	case TxAmalgamate:
		return w.Run(func(tx *txn.Txn) error {
			s1, err := tx.Read(TableSavings, p.Acct1)
			if err != nil {
				return err
			}
			c1, err := tx.Read(TableChecking, p.Acct1)
			if err != nil {
				return err
			}
			c2, err := tx.Read(TableChecking, p.Acct2)
			if err != nil {
				return err
			}
			total := DecBalance(s1) + DecBalance(c1)
			if err := tx.Write(TableSavings, p.Acct1, EncBalance(0)); err != nil {
				return err
			}
			if err := tx.Write(TableChecking, p.Acct1, EncBalance(0)); err != nil {
				return err
			}
			return tx.Write(TableChecking, p.Acct2, EncBalance(DecBalance(c2)+total))
		})
	default:
		return fmt.Errorf("smallbank: unknown tx type %d", p.Type)
	}
}
