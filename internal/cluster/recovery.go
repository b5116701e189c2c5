package cluster

import (
	"encoding/binary"
	"errors"
	"time"

	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/oplog"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

// Failure detection and recovery (§5.2).
//
// Every machine runs a detector thread that reads each peer's heartbeat word
// with one-sided RDMA at every detection tick of the cluster's virtual clock
// (failure.go). A peer is *suspected* once its last stamp read lags the tick
// by more than a lease. The suspecting machine proposes the successor
// configuration through the coordination service; the winning proposal
// commits atomically, survivors observe the new epoch, and each machine
// promoted to primary for an orphaned shard performs recovery:
//
//  1. Drain its local log rings, applying every published entry for shards
//     it now replicates (the redo path; entries below coordinators'
//     watermarks were already both applied and truncated).
//  2. Forward records of *other* shards found in published entries to their
//     current primaries (coordinator died between publishing rings, see the
//     oplog package comment) — the cross-redo that closes the partial-
//     replication window.
//  3. Signal recovery-done.
//
// Dangling locks left by the dead machine are released passively by worker
// threads when they encounter a lock whose owner is not in the current
// configuration — that path lives in the transaction layer; this file only
// provides the membership question it asks.

// RPC kinds used by recovery.
const (
	rpcRedo = 0x10 // forward a full log record to its shard's primary
)

// suspect proposes removing dead from the configuration at detection tick
// at and, if this machine's proposal wins, triggers recovery cluster-wide
// (each survivor reacts to the epoch change it observes).
func (m *Machine) suspect(dead rdma.NodeID, at int64) {
	c := m.cluster
	c.milestone(obs.MilestoneSuspect, dead, at)
	cur := c.Coord.Current()
	if !cur.IsMember(dead) {
		return // someone already reconfigured
	}
	next, err := cur.WithoutNode(dead)
	if err != nil {
		return // unrecoverable shard; keep the config (operators' problem)
	}
	if _, won := c.Coord.Propose(next); won {
		c.milestone(obs.MilestoneConfigCommit, dead, at)
	}
}

// applyNewConfig performs this machine's share of recovery for cfg, then
// installs it.
func (m *Machine) applyNewConfig(cfg *Config) {
	old := m.cfg.Load()
	if cfg.Epoch <= old.Epoch {
		return
	}
	c := m.cluster
	// Epoch fence: commits begun under an older configuration abort before
	// their point of no return (txn's fenced); redo waits for those past it,
	// the dead machine's too, so none publishes after the drain or leaves an
	// unpublished entry ahead of a published one.
	c.awaitCommits(m)
	m.recoverLogs(cfg)
	c.Coord.MarkRecovered(cfg.Epoch, m.ID)
	// Recovery barrier (§5.2): workers route by cfg, and release locks
	// dangling from the dead machine, only once EVERY member has redone its
	// rings for it; before that a promoted copy may lack a logged update.
	for !c.Coord.EpochRecovered(cfg.Epoch) && c.Coord.Epoch() == cfg.Epoch && !m.stopped() {
		sim.Spin(0)
	}
	m.cfg.Store(cfg)
	// Each shard whose primary moved here is recovered: the milestone names
	// the machine that lost it.
	for s, p := range cfg.Primary {
		if p == m.ID && old.Primary[s] != m.ID {
			c.milestone(obs.MilestoneRecoveryDone, old.Primary[s], c.Now())
		}
	}
}

// recoverLogs drains and redoes this machine's rings: local entries for
// shards it replicates are applied; foreign records are forwarded to their
// current primaries.
func (m *Machine) recoverLogs(cfg *Config) {
	for _, a := range m.appliers {
		// Apply everything published (idempotent).
		_, _ = a.Poll()
		// Cross-redo: forward foreign records.
		_ = a.Scan(func(txnID uint64, recs []oplog.Rec) error {
			for _, r := range recs {
				shard := ShardID(r.Shard)
				if m.Replicates(shard) {
					continue // applied above
				}
				primary := cfg.PrimaryOf(shard)
				if primary == m.ID || !cfg.IsMember(primary) {
					continue
				}
				payload := encodeRedo(r)
				_, _ = m.Call(m.auxQPs[primary], rpcRedo, payload, 100*time.Millisecond)
			}
			return nil
		})
	}
}

// handleRedo applies a forwarded log record on the shard's current primary
// (and lets normal replication re-propagate it later if needed).
func (m *Machine) handleRedo(from rdma.NodeID, payload []byte) []byte {
	r, err := decodeRedo(payload)
	if err != nil {
		return []byte{0}
	}
	if !m.Replicates(ShardID(r.Shard)) {
		return []byte{0}
	}
	// Any applier can install records (they share the machine's store).
	if err := m.appliers[(int(m.ID)+1)%len(m.appliers)].ApplyRec(r); err != nil {
		return []byte{0}
	}
	return []byte{1}
}

func encodeRedo(r oplog.Rec) []byte {
	buf := make([]byte, 24+len(r.Value))
	buf[0] = r.Kind
	buf[1] = uint8(r.Table)
	binary.LittleEndian.PutUint16(buf[2:4], r.Shard)
	binary.LittleEndian.PutUint64(buf[8:16], r.Key)
	binary.LittleEndian.PutUint64(buf[16:24], r.Seq)
	copy(buf[24:], r.Value)
	return buf
}

func decodeRedo(buf []byte) (oplog.Rec, error) {
	if len(buf) < 24 {
		return oplog.Rec{}, errShortRedo
	}
	if buf[0] < oplog.KindUpdate || buf[0] > oplog.KindDelete {
		return oplog.Rec{}, errBadRedoKind
	}
	return oplog.Rec{
		Kind:  buf[0],
		Table: memstore.TableID(buf[1]),
		Shard: binary.LittleEndian.Uint16(buf[2:4]),
		Key:   binary.LittleEndian.Uint64(buf[8:16]),
		Seq:   binary.LittleEndian.Uint64(buf[16:24]),
		Value: append([]byte(nil), buf[24:]...),
	}, nil
}

var (
	errShortRedo   = errors.New("cluster: short redo payload")
	errBadRedoKind = errors.New("cluster: redo record has invalid kind")
)
