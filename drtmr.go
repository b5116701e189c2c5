// Package drtmr is a Go reproduction of DrTM+R — "Fast and General
// Distributed Transactions using RDMA and HTM" (EuroSys'16) — as a library.
//
// DrTM+R runs strictly serializable distributed transactions over a cluster
// by combining hardware transactional memory (HTM) for local concurrency
// control with one-sided RDMA for remote access, adding primary-backup
// replication with an optimistic "seqlock" commit scheme. Since neither
// Intel RTM nor RDMA verbs are reachable from Go, this library ships with
// faithful simulations of both (see internal/htm and internal/rdma and the
// substitution table in DESIGN.md); the protocol code is the real thing.
//
// Quick start:
//
//	db, _ := drtmr.Open(drtmr.Options{Nodes: 3, Replicas: 3})
//	defer db.Close()
//	db.CreateTable(1, drtmr.TableSpec{Name: "accounts", ValueSize: 16, ExpectedRows: 1024})
//	db.MustLoad(1, 42, balance(100))
//
//	s := db.Session(0) // a worker session homed on machine 0
//	err := s.Update(func(tx *drtmr.Tx) error {
//		v, err := tx.Read(1, 42)
//		if err != nil {
//			return err
//		}
//		return tx.Write(1, 42, bump(v))
//	})
//
// Sessions are single-goroutine handles; open one per worker. Reads and
// writes inside Update/View run the full DrTM+R protocol: HTM-protected OCC
// locally, RDMA versioned reads + CAS locking remotely, replication before
// full commit when Replicas > 1.
package drtmr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/txn"
)

// TableID names a table (stable across the cluster).
type TableID = memstore.TableID

// TableSpec declares a table's shape.
type TableSpec = memstore.TableSpec

// ShardID identifies a data partition.
type ShardID = cluster.ShardID

// NodeID identifies a machine.
type NodeID = rdma.NodeID

// Partitioner maps records to shards. The default partitioner hashes keys
// across the initial shards.
type Partitioner = txn.Partitioner

// Tx is an in-flight transaction. A value its Read, ReadStable or
// ReadForUpdate returns belongs to the caller: it is a fresh copy, which the
// caller may modify and pass to Write, and it stays valid after the
// transaction, committed or aborted, has ended. The *Tx itself does not: it
// is the function's only while Update or View runs it, and is then reused.
type Tx = txn.Txn

// ErrNotFound is returned by Tx.Read for missing keys.
var ErrNotFound = txn.ErrNotFound

// Options configures a simulated DrTM+R deployment.
type Options struct {
	// Nodes is the machine count (default 3).
	Nodes int
	// Replicas is copies per shard: 1 disables replication, 3 matches the
	// paper's availability setup (default 1).
	Replicas int
	// MemBytes is per-machine NVRAM (default 64 MiB).
	MemBytes int
	// Partitioner overrides key placement (default: key % Nodes).
	Partitioner Partitioner
	// HTM tunes the simulated RTM (spurious abort injection, capacities).
	HTM htm.Config
	// NICBandwidth caps each simulated NIC in bytes/second of virtual
	// time (default: 56Gbps). 0 keeps the default; negative disables.
	NICBandwidth int64
}

// DB is a running cluster with the DrTM+R transaction layer on every
// machine.
type DB struct {
	cluster  *cluster.Cluster
	engines  []*txn.Engine
	part     Partitioner
	started  bool
	startMu  sync.Mutex
	sessions atomic.Int64
}

// Open builds and starts a cluster.
func Open(o Options) (*DB, error) {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Replicas > o.Nodes {
		return nil, fmt.Errorf("drtmr: %d replicas need at least that many nodes (have %d)",
			o.Replicas, o.Nodes)
	}
	if o.MemBytes == 0 {
		o.MemBytes = 64 << 20
	}
	bw := rdma.NICBandwidth56G
	if o.NICBandwidth > 0 {
		bw = o.NICBandwidth
	} else if o.NICBandwidth < 0 {
		bw = 0
	}
	part := o.Partitioner
	if part == nil {
		n := uint64(o.Nodes)
		part = func(table memstore.TableID, key uint64) cluster.ShardID {
			return cluster.ShardID(key % n)
		}
	}
	c := cluster.New(cluster.Spec{
		Nodes:    o.Nodes,
		Replicas: o.Replicas,
		MemBytes: o.MemBytes,
		HTM:      o.HTM,
		RDMA:     rdma.Config{NICBytesPerSec: bw},
	})
	db := &DB{cluster: c, part: part}
	for _, m := range c.Machines {
		db.engines = append(db.engines, txn.NewEngine(m, part, txn.DefaultCosts()))
	}
	return db, nil
}

// Start launches the cluster's background threads (log truncation,
// heartbeats, failure detection). Called implicitly by Session; exposed for
// setups that want to finish loading first.
func (db *DB) Start() { db.startOnce() }

func (db *DB) startOnce() {
	db.startMu.Lock()
	defer db.startMu.Unlock()
	if db.cluster != nil && !db.started {
		db.cluster.Start()
		db.started = true
	}
}

// Close stops all background threads.
func (db *DB) Close() {
	if db.started {
		db.cluster.Stop()
	}
}

// CreateTable registers a table on every machine (identical geometry
// cluster-wide). Must run before Start/Session.
func (db *DB) CreateTable(id TableID, spec TableSpec) {
	for _, m := range db.cluster.Machines {
		m.Store.CreateTable(id, spec)
	}
}

// MustLoad inserts an initial record on its primary and every backup,
// panicking on error (setup-time API).
func (db *DB) MustLoad(table TableID, key uint64, value []byte) {
	cfg := db.cluster.Coord.Current()
	shard := db.part(table, key)
	nodes := append([]rdma.NodeID{cfg.PrimaryOf(shard)}, cfg.BackupsOf(shard)...)
	for _, n := range nodes {
		if _, err := db.cluster.Machines[n].Store.Table(table).Insert(key, value); err != nil {
			panic(fmt.Sprintf("drtmr: load %d/%d on node %d: %v", table, key, n, err))
		}
	}
}

// Session opens a worker session homed on machine node. Sessions are not
// safe for concurrent use; open one per goroutine.
func (db *DB) Session(node NodeID) *Session {
	db.startOnce()
	w := db.engines[node].NewWorker(int(db.sessions.Add(1)))
	return &Session{db: db, w: w}
}

// Cluster exposes the underlying simulated cluster (failure injection,
// stats) for tests and experiments.
func (db *DB) Cluster() *cluster.Cluster { return db.cluster }

// Engine exposes a machine's transaction engine (benchmark harness use).
func (db *DB) Engine(node NodeID) *txn.Engine { return db.engines[node] }

// Session is a single-goroutine transaction handle homed on one machine.
type Session struct {
	db *DB
	w  *txn.Worker
}

// Update runs fn as a read-write transaction with automatic retry until
// commit.
func (s *Session) Update(fn func(tx *Tx) error) error { return s.w.Run(fn) }

// View runs fn as a read-only transaction (§4.5's cheaper protocol).
func (s *Session) View(fn func(tx *Tx) error) error { return s.w.RunReadOnly(fn) }

// Worker exposes the underlying protocol worker (stats, virtual clock).
func (s *Session) Worker() *txn.Worker { return s.w }

// Stats returns this session's commit/abort counters.
func (s *Session) Stats() txn.Stats { return s.w.Stats }
