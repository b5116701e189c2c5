package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"

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
//     current primaries (a target died during a coordinator's R.1 doorbell,
//     so some copies of a shard missed an entry that other rings hold; see
//     the oplog package comment) — the cross-redo that closes the partial-
//     replication window.
//  3. Signal recovery-done.
//
// Dangling locks left by the dead machine are released passively by worker
// threads when they encounter a lock whose owner is not in the current
// configuration — that path lives in the transaction layer; this file only
// provides the membership question it asks.

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
	if err := m.recoverLogs(cfg); err != nil {
		// A refused redo is a committed write about to be lost.
		panic(fmt.Sprintf("cluster: machine %d recovering epoch %d: %v", m.ID, cfg.Epoch, err))
	}
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

// awaitCommits waits until no worker of any machine is in a commit phase,
// or until waiter is told to stop. Commits that start after a configuration
// change abort at their first epoch check, before they can yield.
func (c *Cluster) awaitCommits(waiter *Machine) {
	for _, m := range c.Machines {
		m.commitsMu.Lock()
		counts := append([]*atomic.Int32(nil), m.commits...)
		m.commitsMu.Unlock()
		for _, n := range counts {
			for n.Load() > 0 && !waiter.stopped() {
				sim.Spin(0)
			}
		}
	}
}

// recoverLogs drains and redoes this machine's rings: local entries for
// shards it replicates are applied; foreign records are forwarded to their
// current primaries. It returns the first redo that fails, or the first
// entry it cannot read; a redo that fails because a machine died is left to
// the next configuration's recovery, which reads the same rings.
func (m *Machine) recoverLogs(cfg *Config) error {
	for _, a := range m.appliers {
		// Apply everything published (idempotent).
		_, _ = a.Poll()
		// Cross-redo: ship foreign records to their primaries. A record's
		// value aliases the applier's entry buffer until the callback
		// returns, and Ship is done with it when it returns.
		err := a.Scan(func(txnID uint64, recs []oplog.Rec) error {
			for _, r := range recs {
				shard := ShardID(r.Shard)
				if m.Replicates(shard) {
					continue // applied above
				}
				primary := cfg.PrimaryOf(shard)
				if primary == m.ID || !cfg.IsMember(primary) {
					continue
				}
				_, err := m.Ship(m.auxQPs[primary], r)
				if errors.Is(err, rdma.ErrNodeDead) {
					continue
				}
				if err != nil {
					return fmt.Errorf("redo of txn %d's record (table %d, shard %d, key %d, seq %d) on node %d: %w",
						txnID, r.Table, r.Shard, r.Key, r.Seq, primary, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
