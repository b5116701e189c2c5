package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/oplog"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

func testSpec(nodes, replicas int) Spec {
	return Spec{
		Nodes:          nodes,
		Replicas:       replicas,
		MemBytes:       8 << 20,
		RingBytes:      1 << 14,
		Lease:          10 * time.Millisecond,
		HeartbeatEvery: 2 * time.Millisecond,
	}
}

func TestInitialConfigPlacement(t *testing.T) {
	cfg := NewInitialConfig(6, 3)
	if cfg.Epoch != 1 || cfg.NumShards() != 6 {
		t.Fatalf("cfg: %+v", cfg)
	}
	for s := 0; s < 6; s++ {
		if cfg.PrimaryOf(ShardID(s)) != rdma.NodeID(s) {
			t.Fatalf("shard %d primary: %d", s, cfg.PrimaryOf(ShardID(s)))
		}
		b := cfg.BackupsOf(ShardID(s))
		if len(b) != 2 || b[0] != rdma.NodeID((s+1)%6) || b[1] != rdma.NodeID((s+2)%6) {
			t.Fatalf("shard %d backups: %v", s, b)
		}
	}
}

func TestConfigWithoutNode(t *testing.T) {
	cfg := NewInitialConfig(3, 3)
	next, err := cfg.WithoutNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 2 || next.IsMember(1) {
		t.Fatalf("next: %+v", next)
	}
	// Shard 1's primary moves to its first backup (node 2).
	if next.PrimaryOf(1) != 2 {
		t.Fatalf("promoted primary: %d", next.PrimaryOf(1))
	}
	// Node 1 removed from all backup lists.
	for s := 0; s < 3; s++ {
		for _, b := range next.BackupsOf(ShardID(s)) {
			if b == 1 {
				t.Fatalf("dead node still backup of %d", s)
			}
		}
	}
	// Without replication, losing a node is unrecoverable.
	solo := NewInitialConfig(2, 1)
	if _, err := solo.WithoutNode(0); err == nil {
		t.Fatal("expected unrecoverable shard error")
	}
}

func TestCoordinatorProposeCAS(t *testing.T) {
	coord := NewCoordinator(NewInitialConfig(3, 2))
	cur := coord.Current()
	n1, _ := cur.WithoutNode(2)
	winner, won := coord.Propose(n1)
	if !won || winner.Epoch != 2 {
		t.Fatalf("first proposal: won=%v epoch=%d", won, winner.Epoch)
	}
	// A stale concurrent proposal for the same epoch must lose and get
	// the winner back.
	n2, _ := cur.WithoutNode(1)
	got, won := coord.Propose(n2)
	if won {
		t.Fatal("stale proposal won")
	}
	if got.Epoch != 2 || got.IsMember(2) {
		t.Fatalf("loser should see winner's config: %+v", got)
	}
	if coord.Epoch() != 2 {
		t.Fatalf("epoch: %d", coord.Epoch())
	}
}

func TestRPCRoundtrip(t *testing.T) {
	c := New(testSpec(2, 1))
	c.Start()
	defer c.Stop()
	c.Machines[1].RegisterHandler(0x42, func(from rdma.NodeID, payload []byte) []byte {
		return append([]byte("echo:"), payload...)
	})
	var clk sim.Clock
	qp := c.Net.NewQP(0, 1, &clk)
	reply, err := c.Machines[0].Call(qp, 0x42, []byte("ping"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:ping" {
		t.Fatalf("reply: %q", reply)
	}
}

// driveUntil reports the failure plane's ticks one at a time, ceding the host
// after each so the detectors keep up, until done holds.
func driveUntil(t *testing.T, c *Cluster, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened (failure plane at %v)", what, time.Duration(c.Now()))
		}
		c.Report(c.NextTick())
		runtime.Gosched()
	}
}

// milestoneAt returns the instant of the first milestone of kind, or -1.
func milestoneAt(c *Cluster, kind uint8) int64 {
	for _, ms := range c.Milestones() {
		if ms.Kind == kind {
			return ms.At
		}
	}
	return -1
}

func TestFailureDetectionAndReconfig(t *testing.T) {
	c := New(testSpec(3, 3))
	c.Start()
	defer c.Stop()
	// Between detection ticks, so the victim's last stamp and the last one a
	// detector read are a tick apart.
	const killAt = 7300 * time.Microsecond
	c.KillAt(1, int64(killAt))
	driveUntil(t, c, "config-commit", func() bool { return milestoneAt(c, obs.MilestoneConfigCommit) >= 0 })
	lease, every := c.Spec.Lease, c.Spec.HeartbeatEvery
	if got := milestoneAt(c, obs.MilestoneKilled); got != int64(killAt) {
		t.Fatalf("killed at %v, want %v", time.Duration(got), killAt)
	}
	suspect := time.Duration(milestoneAt(c, obs.MilestoneSuspect))
	if lo, hi := killAt+lease-every/2, killAt+lease+2*every; suspect < lo || suspect > hi {
		t.Fatalf("suspected at %v, want within [%v, %v]: the lease gates detection", suspect, lo, hi)
	}
	if commit := time.Duration(milestoneAt(c, obs.MilestoneConfigCommit)); commit < suspect {
		t.Fatalf("config committed at %v, before the suspicion at %v", commit, suspect)
	}
	// Survivors converge on epoch 2 with node 1 gone and shard 1 promoted.
	for _, id := range []rdma.NodeID{0, 2} {
		m := c.Machines[id]
		driveUntil(t, c, fmt.Sprintf("epoch 2 on machine %d", id), func() bool { return m.Config().Epoch >= 2 })
		cfg := m.Config()
		if cfg.IsMember(1) {
			t.Fatalf("machine %d still sees node 1 as member", id)
		}
		if cfg.PrimaryOf(1) != 2 {
			t.Fatalf("machine %d: shard 1 primary = %d, want 2", id, cfg.PrimaryOf(1))
		}
	}
	for _, ms := range c.Milestones() {
		if ms.Node != 1 {
			t.Fatalf("milestone %s names live machine %d", obs.MilestoneName(ms.Kind), ms.Node)
		}
	}
}

// TestNoLiveMachineIsSuspected: machine 2 reports nothing (its workers have
// finished, or never started) while machines 0 and 1 drive the cluster's
// clock ten leases on. Every live machine is stamped on that one clock, so
// machine 2 never goes stale; a heartbeat that followed each machine's own
// workers would have it suspected after one lease.
func TestNoLiveMachineIsSuspected(t *testing.T) {
	c := New(testSpec(3, 3))
	c.Start()
	defer c.Stop()
	end := 11 * int64(c.Spec.Lease)
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var clk sim.Clock
			for clk.Now() < end {
				clk.Advance(time.Duration(30+node*17) * time.Microsecond)
				c.Report(clk.Now())
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	for _, m := range c.Machines {
		for m.passed.Load() < c.plane.detect.Load() {
			runtime.Gosched()
		}
	}
	if c.Now() < end-c.tick() {
		t.Fatalf("clock reached only %v", time.Duration(c.Now()))
	}
	if ms := c.Milestones(); len(ms) != 0 {
		t.Fatalf("live cluster recorded milestones: %+v", ms)
	}
}

func TestLogReplicationThroughMachines(t *testing.T) {
	c := New(testSpec(3, 3))
	for _, m := range c.Machines {
		m.Store.CreateTable(1, memstore.TableSpec{Name: "kv", ValueSize: 16, ExpectedRows: 64})
	}
	c.Start()
	defer c.Stop()
	// Machine 0 replicates a shard-0 update to its backups (1 and 2).
	var clk sim.Clock
	val := make([]byte, 16)
	copy(val, "replicated!")
	entry := oplog.Encode(1, []oplog.Rec{{
		Kind: oplog.KindInsert, Table: 1, Shard: 0, Key: 77, Seq: 2, Value: val,
	}})
	for _, b := range []rdma.NodeID{1, 2} {
		qp := c.Net.NewQP(0, b, &clk)
		if err := c.Machines[0].LogWriter(b).Append(qp, entry); err != nil {
			t.Fatal(err)
		}
	}
	// Aux threads should apply within a few polling rounds.
	ok := false
	for i := 0; i < 200 && !ok; i++ {
		ok = true
		for _, b := range []rdma.NodeID{1, 2} {
			if _, found := c.Machines[b].Store.Table(1).Lookup(77); !found {
				ok = false
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !ok {
		t.Fatal("backups never applied the log entry")
	}
}

func TestRecoveryPromotesBackupWithData(t *testing.T) {
	c := New(testSpec(3, 3))
	for _, m := range c.Machines {
		m.Store.CreateTable(1, memstore.TableSpec{Name: "kv", ValueSize: 16, ExpectedRows: 64})
	}
	c.Start()
	defer c.Stop()
	// Shard 1 lives on machine 1; replicate a record to backups 2 and 0.
	var clk sim.Clock
	val := make([]byte, 16)
	copy(val, "survive-me")
	entry := oplog.Encode(5, []oplog.Rec{{
		Kind: oplog.KindInsert, Table: 1, Shard: 1, Key: 500, Seq: 2, Value: val,
	}})
	for _, b := range []rdma.NodeID{2, 0} {
		qp := c.Net.NewQP(1, b, &clk)
		if err := c.Machines[1].LogWriter(b).Append(qp, entry); err != nil {
			t.Fatal(err)
		}
	}
	c.Kill(1)
	driveUntil(t, c, "recovery-done", func() bool { return milestoneAt(c, obs.MilestoneRecoveryDone) >= 0 })
	// New primary of shard 1 is machine 2, and it has the record.
	cfg := c.Coord.Current()
	if cfg.PrimaryOf(1) != 2 {
		t.Fatalf("promoted primary: %d", cfg.PrimaryOf(1))
	}
	off, ok := c.Machines[2].Store.Table(1).Lookup(500)
	if !ok {
		t.Fatal("promoted primary lost the record")
	}
	got := c.Machines[2].Store.Table(1).ReadValueNonTx(off)
	if string(got[:10]) != "survive-me" {
		t.Fatalf("value: %q", got)
	}
}
