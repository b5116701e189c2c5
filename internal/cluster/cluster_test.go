package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
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

// shipCluster is a started unreplicated cluster whose NICs move one byte per
// virtual ns, so a message's wire time is its size, and whose machines hold
// table 1.
func shipCluster(t *testing.T, nodes int) *Cluster {
	spec := testSpec(nodes, 1)
	spec.RDMA.NICBytesPerSec = 1e9
	c := New(spec)
	for _, m := range c.Machines {
		m.Store.CreateTable(1, memstore.TableSpec{Name: "kv", ValueSize: 16, ExpectedRows: 1024})
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// TestRPCRoundtrip: Machine.Ship, the one RPC, applies a record on its
// target and returns the offset the target reports. The caller pays one
// SEND: Profile.Send plus the wire time of the 13-byte header, the record's
// 24-byte log header and its value. The reply is booked as a SEND from the
// target, and both messages are counted on both NICs. A kind the target
// cannot apply is refused, and charged all the same; a ship to or from a
// dead machine fails at once with ErrNodeDead and charges nothing.
func TestRPCRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind uint8
		kill int // machine killed before the ship, -1 for none
		err  error
	}{
		{"echo", oplog.KindInsert, -1, nil},
		{"unknown kind", 9, -1, errRefused},
		{"killed target", oplog.KindInsert, 1, rdma.ErrNodeDead},
		{"killed caller", oplog.KindInsert, 0, rdma.ErrNodeDead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := shipCluster(t, 2)
			if tc.kill >= 0 {
				c.Kill(rdma.NodeID(tc.kill))
			}
			var clk sim.Clock
			qp := c.Net.NewQP(0, 1, &clk)
			r := oplog.Rec{Kind: tc.kind, Table: 1, Shard: 1, Key: 7, Value: []byte("ping")}
			off, err := c.Machines[0].Ship(qp, r)
			if !errors.Is(err, tc.err) {
				t.Fatalf("err %v, want %v", err, tc.err)
			}
			want, tbl := uint64(0), c.Machines[1].Store.Table(1)
			if tc.err == nil {
				want, _ = tbl.Lookup(7)
				if want == 0 || !strings.HasPrefix(string(tbl.ReadValueNonTx(want)), "ping") {
					t.Fatalf("the target holds no shipped record at %d", want)
				}
			}
			if off != want {
				t.Fatalf("off %d, want %d", off, want)
			}
			req, rep := int64(13+24+len(r.Value)+64), int64(13+9+64) // rdma adds 64
			sends, clock := uint64(1), int64(c.Net.Profile().Send)+req
			if tc.err == rdma.ErrNodeDead {
				sends, clock, req, rep = 0, 0, 0, 0
			}
			if clk.Now() != clock {
				t.Fatalf("caller clock %d, want %d", clk.Now(), clock)
			}
			src, dst := c.Net.NIC(0).Snapshot(), c.Net.NIC(1).Snapshot()
			if dst.Sends != sends || src.Sends != sends {
				t.Fatalf("sends: request %d, reply %d; want %d each", dst.Sends, src.Sends, sends)
			}
			if src.BytesOut != uint64(req) || dst.BytesIn != uint64(req) || dst.BytesOut != uint64(rep) || src.BytesIn != uint64(rep) {
				t.Fatalf("bytes: request %d out, %d in; reply %d out, %d in; want %d and %d",
					src.BytesOut, dst.BytesIn, dst.BytesOut, src.BytesIn, req, rep)
			}
		})
	}
}

// TestRPCConcurrentCallers: eight shippers, each with its own clock and QP,
// ship inserts to one machine at once; it applies them all concurrently,
// and each shipper gets its own record's offset.
func TestRPCConcurrentCallers(t *testing.T) {
	c := shipCluster(t, 3)
	const shippers, ships = 8, 100
	tbl := c.Machines[1].Store.Table(1)
	var wg sync.WaitGroup
	errs := make(chan error, shippers)
	for g := 0; g < shippers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := rdma.NodeID(g % 2 * 2) // machines 0 and 2
			var clk sim.Clock
			qp := c.Net.NewQP(from, 1, &clk)
			for i := 0; i < ships; i++ {
				key := uint64(g*ships + i)
				off, err := c.Machines[from].Ship(qp, oplog.Rec{Kind: oplog.KindInsert, Table: 1, Shard: 1, Key: key, Value: []byte(fmt.Sprint(key))})
				if at, _ := tbl.Lookup(key); err != nil || off == 0 || off != at {
					errs <- fmt.Errorf("shipper %d record %d: off %d, err %v; the target holds it at %d", g, key, off, err, at)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := c.Net.NIC(1).Snapshot().Sends; got != shippers*ships {
		t.Fatalf("target counted %d sends, want %d", got, shippers*ships)
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

// TestLogReplicationThroughMachines: machine 0 appends eight rings' worth of
// entries to each of its two backups. Each ring fills over and over, so the
// appends go on only as the backups' auxiliary threads apply and truncate,
// and those run only when a write wakes them: a lost wake-up stalls the
// appender, and the deadline reports it.
func TestLogReplicationThroughMachines(t *testing.T) {
	spec := testSpec(3, 3)
	c := New(spec)
	const valueSize = 64 // an entry is 16 + 24 + 64 bytes, padded to 128
	entries := 8 * spec.RingBytes / 128
	for _, m := range c.Machines {
		m.Store.CreateTable(1, memstore.TableSpec{Name: "kv", ValueSize: valueSize, ExpectedRows: 2 * entries})
	}
	c.Start()
	defer c.Stop()
	backups := []rdma.NodeID{1, 2}
	value := func(k int) []byte {
		v := make([]byte, valueSize)
		copy(v, fmt.Sprintf("value %d", k))
		return v
	}
	appended := make(chan error, 1)
	go func() {
		var clk sim.Clock
		for k := 0; k < entries; k++ {
			entry := oplog.Encode(uint64(k+1), []oplog.Rec{{
				Kind: oplog.KindInsert, Table: 1, Shard: 0, Key: uint64(k), Seq: 2, Value: value(k),
			}})
			for _, b := range backups {
				if err := c.Machines[0].LogWriter(b).Append(c.Net.NewQP(0, b, &clk), entry); err != nil {
					appended <- err
					return
				}
			}
		}
		appended <- nil
	}()
	deadline := time.Now().Add(10 * time.Second)
	for _, b := range backups {
		tbl := c.Machines[b].Store.Table(1)
		for k := 0; k < entries; k++ {
			for _, ok := tbl.Lookup(uint64(k)); !ok; _, ok = tbl.Lookup(uint64(k)) {
				if time.Now().After(deadline) {
					t.Fatalf("machine %d applied %d of %d entries", b, k, entries)
				}
				runtime.Gosched()
			}
		}
	}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	for _, b := range backups {
		tbl := c.Machines[b].Store.Table(1)
		for k := 0; k < entries; k++ {
			off, ok := tbl.Lookup(uint64(k))
			if !ok {
				t.Fatalf("machine %d lacks key %d", b, k)
			}
			if got := tbl.ReadValueNonTx(off); string(got) != string(value(k)) {
				t.Fatalf("machine %d key %d: %q", b, k, got)
			}
		}
	}
}

// TestRecoverLogsRedoesForeignRecords: a record in machine 0's ring for a
// shard it does not hold is redone on the shard's primary, machine 1; if
// machine 1 refuses it (it has no such table) recovery returns an error
// naming the record and the target, and does not drop it.
func TestRecoverLogsRedoesForeignRecords(t *testing.T) {
	for _, tc := range []struct {
		name    string
		table   memstore.TableID
		refused bool
	}{
		{"accepted", 1, false},
		{"refused", 9, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two copies on three machines: shard 1 lives on machines 1
			// and 2, so it is foreign to machine 0.
			c := New(testSpec(3, 2))
			for _, m := range c.Machines {
				m.Store.CreateTable(1, memstore.TableSpec{Name: "kv", ValueSize: 16, ExpectedRows: 64})
			}
			// Published but not marked committed, as by a coordinator that
			// died before C.6: recovery must redo it.
			var clk sim.Clock
			entry := oplog.Encode(7, []oplog.Rec{{
				Kind: oplog.KindInsert, Table: tc.table, Shard: 1, Key: 42, Seq: 2, Value: make([]byte, 16),
			}})
			w, qp := c.Machines[2].LogWriter(0), c.Net.NewQP(2, 0, &clk)
			b := qp.Batch()
			_, err := w.Post(qp, b, entry)
			if err == nil {
				err = b.Execute()
			}
			if err != nil {
				t.Fatal(err)
			}
			err = c.Machines[0].recoverLogs(c.Coord.Current())
			if !tc.refused {
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := c.Machines[1].Store.Table(1).Lookup(42); !ok {
					t.Fatal("the primary never got the redone record")
				}
				return
			}
			if !errors.Is(err, errRefused) {
				t.Fatalf("err %v, want a refused redo", err)
			}
			for _, part := range []string{"txn 7", "table 9", "shard 1", "key 42", "node 1"} {
				if !strings.Contains(err.Error(), part) {
					t.Fatalf("error %q does not name %q", err, part)
				}
			}
		})
	}
}

// TestUnflippedShippedInsertSettles: DrTM+R ships a remote insert at seq 1,
// R.1 logs it at its final seq 2 to the record's primary and backups, and
// C.5 flips the primary's copy. If the coordinator dies between R.1 and
// C.5, the flip never lands: the entry alone settles the primary's copy at
// seq 2, whether the primary's applier reads it or recovery's drain does.
func TestUnflippedShippedInsertSettles(t *testing.T) {
	for _, recovery := range []bool{false, true} {
		t.Run(map[bool]string{false: "applier", true: "recovery"}[recovery], func(t *testing.T) {
			c := New(testSpec(3, 3))
			for _, m := range c.Machines {
				m.Store.CreateTable(1, memstore.TableSpec{Name: "kv", ValueSize: 16, ExpectedRows: 64})
			}
			if !recovery {
				c.Start()
				defer c.Stop()
			}
			var clk sim.Clock
			cfg := c.Coord.Current()
			primary := cfg.PrimaryOf(1)
			ins := oplog.Rec{Kind: oplog.KindInsert, Table: 1, Shard: 1, Key: 42, Seq: 1, Value: []byte("shipped")}
			if _, err := c.Machines[0].Ship(c.Net.NewQP(0, primary, &clk), ins); err != nil {
				t.Fatal(err)
			}
			ins.Seq = 2
			entry := oplog.Encode(7, []oplog.Rec{ins})
			for _, nd := range append([]rdma.NodeID{primary}, cfg.BackupsOf(1)...) {
				if err := c.Machines[0].LogWriter(nd).Append(c.Net.NewQP(0, nd, &clk), entry); err != nil {
					t.Fatal(err)
				}
			}
			m := c.Machines[primary]
			if recovery {
				if err := m.recoverLogs(cfg); err != nil {
					t.Fatal(err)
				}
			}
			tbl := m.Store.Table(1)
			deadline := time.Now().Add(3 * time.Second)
			for {
				off, ok := tbl.Lookup(42)
				if !ok {
					t.Fatal("the primary lost the shipped insert")
				}
				seq := memstore.RecSeq(m.Eng.ReadNonTx(off, tbl.RecBytes, nil))
				if seq == 2 {
					break
				}
				if recovery || time.Now().After(deadline) {
					t.Fatalf("the primary's copy stays at seq %d, want 2", seq)
				}
				runtime.Gosched()
			}
		})
	}
}

// TestDeadRingInFusedFanOut: R.1 posts one entry to two rings in one
// doorbell, payload then header on each ring's queue pair, and one target is
// dead. The live ring holds the whole entry: its applier installs the
// records its machine replicates, and recovery redoes the rest of the full
// write set from it. The dead ring's header never lands.
func TestDeadRingInFusedFanOut(t *testing.T) {
	// Two copies on three machines: shard 1 lives on machines 1 and 2,
	// shard 2 on machines 2 and 0.
	c := New(testSpec(3, 2))
	for _, m := range c.Machines {
		m.Store.CreateTable(1, memstore.TableSpec{Name: "kv", ValueSize: 16, ExpectedRows: 64})
	}
	recs := []oplog.Rec{
		{Kind: oplog.KindInsert, Table: 1, Shard: 1, Key: 41, Seq: 2, Value: make([]byte, 16)},
		{Kind: oplog.KindInsert, Table: 1, Shard: 2, Key: 42, Seq: 2, Value: make([]byte, 16)},
	}
	entry := oplog.Encode(7, recs)
	if len(entry) <= sim.CachelineSize {
		t.Fatalf("a %d-byte entry has no payload WRITE", len(entry))
	}
	c.Kill(2)
	var clk sim.Clock
	b := rdma.NewBatch(&clk)
	var toks []oplog.Token
	for _, dst := range []rdma.NodeID{1, 2} {
		tk, err := c.Machines[0].LogWriter(dst).Post(c.Net.NewQP(0, dst, &clk), b, entry)
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tk)
	}
	if err := b.Execute(); !errors.Is(err, rdma.ErrNodeDead) {
		t.Fatalf("doorbell err %v, want the dead target's", err)
	}
	if !toks[0].Landed() || toks[1].Landed() {
		t.Fatalf("landed: live ring %v, dead ring %v", toks[0].Landed(), toks[1].Landed())
	}
	// Machine 0's ring sits at the same offset inside every peer, past the
	// ring control words; the entry is its first.
	ring := (uint64(ringCtlBase) + 3*2*sim.CachelineSize + 4095) &^ 4095
	if l := c.Machines[1].Eng.Load64NonTx(ring); uint32(l) != uint32(len(entry)) {
		t.Fatalf("live ring's header word %#x, want length %d", l, len(entry))
	}
	if img := c.Machines[2].Eng.ReadNonTx(ring, len(entry), nil); string(img) != string(make([]byte, len(entry))) {
		t.Fatal("the dead ring holds part of the entry")
	}
	var scanned []oplog.Rec
	if err := c.Machines[1].Applier(0).Scan(func(_ uint64, rs []oplog.Rec) error {
		scanned = append(scanned, rs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != len(recs) || scanned[0].Key != 41 || scanned[1].Key != 42 {
		t.Fatalf("live ring holds %+v, want the full write set", scanned)
	}
	if n, err := c.Machines[1].Applier(0).Poll(); n != 1 || err != nil {
		t.Fatalf("live applier applied %d entries: %v", n, err)
	}
	if _, ok := c.Machines[1].Store.Table(1).Lookup(41); !ok {
		t.Fatal("the live ring's machine lacks its own shard's record")
	}
	// Machine 2 is gone: shard 2's primary moves to machine 0, which gets
	// key 42 only from the redo of the live ring.
	next, err := c.Coord.Current().WithoutNode(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Machines[1].recoverLogs(next); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Machines[0].Store.Table(1).Lookup(42); !ok {
		t.Fatal("recovery did not redo shard 2's record from the live ring")
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
