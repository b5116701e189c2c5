package rdma

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"drtmr/internal/sim"
)

// TestBatchChargesMaxNotSum is the core doorbell-batching property: a K-verb
// batch fanned out to M nodes charges ONE base latency (the slowest verb
// kind), not K full round-trips.
func TestBatchChargesMaxNotSum(t *testing.T) {
	net, _ := newFabric(t, 4, Config{}) // no bandwidth limit: pure latency
	var clk sim.Clock
	qps := []*QP{net.NewQP(0, 1, &clk), net.NewQP(0, 2, &clk), net.NewQP(0, 3, &clk)}
	prof := net.Profile()

	b := NewBatch(&clk)
	for _, qp := range qps {
		b.PostRead(qp, 0, 24)
		b.PostRead64(qp, 64)
	}
	start := clk.Now()
	if err := b.Execute(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Duration(clk.Now() - start)
	if elapsed < prof.Read {
		t.Fatalf("6-READ batch charged %v, want >= one Read base %v", elapsed, prof.Read)
	}
	if elapsed >= 2*prof.Read {
		t.Fatalf("6-READ batch to 3 nodes charged %v, want < 2x Read base %v (max, not sum)", elapsed, 2*prof.Read)
	}

	// A mixed batch costs the SLOWEST verb kind's base latency.
	b2 := NewBatch(&clk)
	b2.PostCAS(qps[0], 128, 0, 7)
	b2.PostRead64(qps[1], 128)
	start = clk.Now()
	if err := b2.Execute(); err != nil {
		t.Fatal(err)
	}
	elapsed = time.Duration(clk.Now() - start)
	if elapsed < prof.CAS {
		t.Fatalf("CAS+READ batch charged %v, want >= CAS base %v", elapsed, prof.CAS)
	}
	if elapsed >= prof.CAS+prof.Read {
		t.Fatalf("CAS+READ batch charged %v, want < CAS+Read sum %v", elapsed, prof.CAS+prof.Read)
	}
}

// postLike posts a verb with v's request fields to b: the verb list of
// TestBatchSequentialMatchesSyncVerbs is written as unposted Pendings.
func postLike(b *Batch, qp *QP, v Pending) *Pending {
	switch v.verb {
	case verbRead:
		return b.PostRead(qp, v.off, v.n)
	case verbRead64:
		return b.PostRead64(qp, v.off)
	case verbWrite:
		return b.PostWrite(qp, v.off, v.data)
	case verbWrite64:
		return b.PostWrite64(qp, v.off, v.arg)
	}
	return b.PostCAS(qp, v.off, v.old, v.arg)
}

// syncLike runs the same verb through the synchronous QP method of its kind
// (READ through ReadAsync and an immediate Wait when async is set) and
// reports the outcome in the shape a batch reports it.
func syncLike(qp *QP, v Pending, async bool) *Pending {
	var p Pending
	switch v.verb {
	case verbRead:
		buf := make([]byte, 512) // the caller's own buffer: reused, and not handed back by a dead target
		if async {
			var c Completion
			p.Data, c = qp.ReadAsync(v.off, v.n, buf)
			p.Err = c.Wait()
		} else {
			p.Data, p.Err = qp.Read(v.off, v.n, buf)
		}
		if p.Err == nil && &p.Data[0] != &buf[0] {
			p.Err = fmt.Errorf("READ of %d bytes did not reuse a %d-byte buffer", v.n, len(buf))
		}
	case verbRead64:
		p.Val, p.Err = qp.Read64(v.off)
	case verbWrite:
		p.Err = qp.Write(v.off, v.data)
	case verbWrite64:
		p.Err = qp.Write64(v.off, v.arg)
	case verbCAS:
		p.Prev, p.Swapped, p.Err = qp.CAS(v.off, v.old, v.arg)
	}
	return &p
}

// TestBatchSequentialMatchesSyncVerbs: sequential accounting IS the
// synchronous verbs' accounting. One mixed verb list — READ, READ64, WRITE,
// WRITE64, a CAS that wins, a CAS that loses, a READ of what the WRITE left —
// run as synchronous QP verbs, as one SetSequential batch, as sequential
// batches of one verb each, and with ReadAsync+Wait standing in for Read must
// leave the same final clock to the nanosecond, the same counters on both
// NICs, the same per-verb results and the same target memory, whatever the
// fabric looks like.
func TestBatchSequentialMatchesSyncVerbs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 200) // four cachelines on the wire
	verbs := []Pending{
		{verb: verbRead, off: 128, n: 200},
		{verb: verbRead64, off: 512},
		{verb: verbWrite, off: 1024, data: payload},
		{verb: verbWrite64, off: 2048, arg: 77},
		{verb: verbCAS, off: 512, old: 41, arg: 42},
		{verb: verbCAS, off: 576, old: 99, arg: 1},
		{verb: verbRead, off: 1000, n: 300},
	}
	var sumBases, sumWire int64 // every verb's base latency; its bytes on an idle 56G wire
	for _, v := range verbs {
		sumBases += int64(v.base(DefaultProfile()))
		sumWire += (int64(v.wireBytes()) + 64) * int64(time.Second) / NICBandwidth56G
	}

	ways := []struct {
		name string
		run  func(clk *sim.Clock, qp *QP) []*Pending
	}{
		{"synchronous verbs", func(_ *sim.Clock, qp *QP) (out []*Pending) {
			for _, v := range verbs {
				out = append(out, syncLike(qp, v, false))
			}
			return out
		}},
		{"one sequential batch", func(clk *sim.Clock, qp *QP) (out []*Pending) {
			b := NewBatch(clk)
			b.SetSequential(true)
			for _, v := range verbs {
				out = append(out, postLike(b, qp, v))
			}
			b.Execute()
			return out
		}},
		{"one-verb sequential batches", func(clk *sim.Clock, qp *QP) (out []*Pending) {
			b := NewBatch(clk)
			b.SetSequential(true)
			for _, v := range verbs {
				p := postLike(b, qp, v)
				if err := b.Execute(); err != p.Err {
					t.Errorf("one-verb batch returned %v, its verb %v", err, p.Err)
				}
				out = append(out, p)
			}
			return out
		}},
		{"ReadAsync+Wait for Read", func(_ *sim.Clock, qp *QP) (out []*Pending) {
			for _, v := range verbs {
				out = append(out, syncLike(qp, v, true))
			}
			return out
		}},
	}

	type outcome struct {
		clock    int64
		src, dst StatsSnapshot
		results  string
		mem      []byte
	}
	cases := []struct {
		name     string
		cfg      Config
		src, dst NodeID
		backlog  bool // another requester's bytes already queued on the target NIC
		dead     bool
		check    func(t *testing.T, o outcome)
	}{
		{name: "unlimited bandwidth", dst: 1, check: func(t *testing.T, o outcome) {
			if o.clock != sumBases {
				t.Errorf("clock %d, want the sum of the base latencies %d", o.clock, sumBases)
			}
		}},
		{name: "56G idle", cfg: Config{NICBytesPerSec: NICBandwidth56G}, dst: 1, check: func(t *testing.T, o outcome) {
			if o.clock != sumBases+sumWire {
				t.Errorf("clock %d, want base latencies %d + serialization %d", o.clock, sumBases, sumWire)
			}
		}},
		{name: "56G behind a backlog", cfg: Config{NICBytesPerSec: NICBandwidth56G}, dst: 1, backlog: true, check: func(t *testing.T, o outcome) {
			if o.clock <= sumBases+sumWire+3000 {
				t.Errorf("clock %d: the first verbs did not queue behind the target's backlog", o.clock)
			}
		}},
		{name: "loop-back QP", cfg: Config{NICBytesPerSec: NICBandwidth56G}, check: func(t *testing.T, o outcome) {
			if o.src.BytesOut != o.src.BytesIn || o.src.BytesOut == 0 {
				t.Errorf("loop-back NIC out %d in %d", o.src.BytesOut, o.src.BytesIn)
			}
			if o.clock != sumBases+sumWire {
				t.Errorf("clock %d, want %d: src == dst books the one wire once", o.clock, sumBases+sumWire)
			}
		}},
		{name: "dead target", cfg: Config{NICBytesPerSec: NICBandwidth56G}, dst: 1, dead: true, check: func(t *testing.T, o outcome) {
			if o.clock != 0 || o.src != (StatsSnapshot{}) || o.dst != (StatsSnapshot{}) {
				t.Errorf("verbs to a dead target charged: clock %d, src %+v, dst %+v", o.clock, o.src, o.dst)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want outcome
			for i, way := range ways {
				net, engs := newFabric(t, 3, tc.cfg)
				engs[tc.dst].WriteNonTx(128, bytes.Repeat([]byte("drtm+r "), 40))
				engs[tc.dst].Store64NonTx(512, 41)
				if tc.backlog {
					var other sim.Clock
					if err := net.NewQP(2, tc.dst, &other).Write(1<<15, make([]byte, 1<<15)); err != nil {
						t.Fatal(err)
					}
				}
				if tc.dead {
					net.NIC(tc.dst).Kill()
				}
				var clk sim.Clock
				got := outcome{mem: make([]byte, 4096)}
				for _, p := range way.run(&clk, net.NewQP(tc.src, tc.dst, &clk)) {
					if tc.dead != (p.Err == ErrNodeDead) {
						t.Errorf("%s: verb error %v on a target with dead=%v", way.name, p.Err, tc.dead)
					}
					got.results += fmt.Sprintf("%x %d %d %v %v\n", p.Data, p.Val, p.Prev, p.Swapped, p.Err)
				}
				got.clock = clk.Now()
				got.src, got.dst = net.NIC(tc.src).Snapshot(), net.NIC(tc.dst).Snapshot()
				engs[tc.dst].ReadNonTx(0, len(got.mem), got.mem)
				if i == 0 {
					want = got
					tc.check(t, want)
					continue
				}
				if got.clock != want.clock {
					t.Errorf("%s: final clock %d ns, %s %d ns", way.name, got.clock, ways[0].name, want.clock)
				}
				if got.src != want.src || got.dst != want.dst {
					t.Errorf("%s: NIC counters src %+v dst %+v, %s src %+v dst %+v", way.name, got.src, got.dst, ways[0].name, want.src, want.dst)
				}
				if got.results != want.results {
					t.Errorf("%s: per-verb results\n%s%s:\n%s", way.name, got.results, ways[0].name, want.results)
				}
				if !bytes.Equal(got.mem, want.mem) {
					t.Errorf("%s: target memory differs from %s", way.name, ways[0].name)
				}
			}
			if !tc.dead && !strings.Contains(want.results, " 41 true <nil>") {
				t.Errorf("the winning CAS did not win:\n%s", want.results)
			}
		})
	}
}

// TestBatchBandwidthQueueingPerTarget: with a tiny NIC bandwidth, batching
// overlaps round-trips but NOT wire serialization — each endpoint NIC still
// queues every byte. Fanning the same verbs out over more targets shortens
// the max per-target queue.
func TestBatchBandwidthQueueingPerTarget(t *testing.T) {
	cfg := Config{NICBytesPerSec: 1 << 20} // 1 MiB/s
	payload := make([]byte, 4096)

	run := func(targets int) time.Duration {
		net, _ := newFabric(t, 4, cfg)
		var clk sim.Clock
		b := NewBatch(&clk)
		for i := 0; i < 8; i++ {
			qp := net.NewQP(0, NodeID(1+i%targets), &clk)
			b.PostWrite(qp, 0, payload)
		}
		start := clk.Now()
		if err := b.Execute(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(clk.Now() - start)
	}

	one := run(1)
	three := run(3)
	// 8 x ~4KiB at 1 MiB/s ≈ 32ms: the sender NIC serializes all of it in
	// both cases, so fanning out cannot go below the sender's queue, but the
	// cost must never be summed per round-trip either.
	if one < 25*time.Millisecond {
		t.Fatalf("bandwidth not modelled in batch: %v", one)
	}
	if three > one {
		t.Fatalf("fan-out to 3 targets slower than 1 target: %v > %v", three, one)
	}
}

// TestBatchCASAbortsConflictingHTM: batched verbs keep strong atomicity —
// a batched CAS or WRITE aborts an HTM transaction reading that cacheline.
func TestBatchCASAbortsConflictingHTM(t *testing.T) {
	net, engs := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)

	tx := engs[1].Begin()
	if _, err := tx.Load64(512); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(&clk)
	p := b.PostCAS(qp, 512, 0, 1)
	if err := b.Execute(); err != nil {
		t.Fatal(err)
	}
	if !p.Swapped || p.Prev != 0 {
		t.Fatalf("CAS result: prev=%d swapped=%v", p.Prev, p.Swapped)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("batched CAS must abort conflicting HTM txn")
	}

	tx2 := engs[1].Begin()
	if _, err := tx2.Load64(1024); err != nil {
		t.Fatal(err)
	}
	b2 := NewBatch(&clk)
	b2.PostWrite64(qp, 1024, 9)
	if err := b2.Execute(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil {
		t.Fatal("batched WRITE must abort conflicting HTM txn")
	}
}

// TestBatchReadDoesNotAbortHTMReader: read-read stays compatible.
func TestBatchReadDoesNotAbortHTMReader(t *testing.T) {
	net, engs := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)

	tx := engs[1].Begin()
	if _, err := tx.Load64(512); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(&clk)
	b.PostRead(qp, 512, 8)
	b.PostRead64(qp, 512)
	if err := b.Execute(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-read should not conflict: %v", err)
	}
}

// TestBatchResults: per-verb completion slots carry the right data.
func TestBatchResults(t *testing.T) {
	net, engs := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	want := []byte("doorbell batching works!")
	engs[1].WriteNonTx(256, want)
	engs[1].Store64NonTx(512, 41)

	b := NewBatch(&clk)
	rd := b.PostRead(qp, 256, len(want))
	v := b.PostRead64(qp, 512)
	casOK := b.PostCAS(qp, 512, 41, 42)
	casFail := b.PostCAS(qp, 576, 99, 1)
	if b.Len() != 4 {
		t.Fatalf("Len=%d", b.Len())
	}
	if err := b.Execute(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatal("Execute must reset the batch")
	}
	if !bytes.Equal(rd.Data, want) {
		t.Fatalf("READ data: %q", rd.Data)
	}
	if v.Val != 41 {
		t.Fatalf("READ64: %d", v.Val)
	}
	if !casOK.Swapped || casOK.Prev != 41 {
		t.Fatalf("CAS ok: %+v", casOK)
	}
	if casFail.Swapped || casFail.Prev != 0 {
		t.Fatalf("CAS fail: %+v", casFail)
	}
	if got := engs[1].Load64NonTx(512); got != 42 {
		t.Fatalf("CAS did not land: %d", got)
	}
}

// TestBatchDeadNodePerVerbError: a dead target fails only ITS verbs; verbs to
// live targets in the same doorbell still complete.
func TestBatchDeadNodePerVerbError(t *testing.T) {
	net, engs := newFabric(t, 3, Config{})
	var clk sim.Clock
	qpDead := net.NewQP(0, 1, &clk)
	qpLive := net.NewQP(0, 2, &clk)
	engs[2].Store64NonTx(64, 7)
	net.NIC(1).Kill()

	b := NewBatch(&clk)
	pd := b.PostRead64(qpDead, 0)
	pl := b.PostRead64(qpLive, 64)
	if err := b.Execute(); err != ErrNodeDead {
		t.Fatalf("Execute err = %v, want ErrNodeDead", err)
	}
	if pd.Err != ErrNodeDead {
		t.Fatalf("dead-target verb err = %v", pd.Err)
	}
	if pl.Err != nil || pl.Val != 7 {
		t.Fatalf("live-target verb: err=%v val=%d", pl.Err, pl.Val)
	}
}

// TestBatchPerQPOrder holds Batch's ordering contract, which the commit
// pipeline's two fused doorbells rest on, under batched and sequential
// accounting: verbs posted to one QP execute in post order.
func TestBatchPerQPOrder(t *testing.T) {
	const lockOff, valOff = 0, 8 // one cacheline: a READ of both is atomic
	for _, seq := range []bool{false, true} {
		name := "batched"
		if seq {
			name = "sequential"
		}
		t.Run(name, func(t *testing.T) {
			net, engs := newFabric(t, 3, Config{})
			var clk sim.Clock
			qp1, qp2 := net.NewQP(0, 1, &clk), net.NewQP(0, 2, &clk)
			newBatch := func() *Batch {
				b := NewBatch(&clk)
				b.SetSequential(seq)
				return b
			}

			// Lock + fetch: the READ behind a CAS returns the post-CAS lock
			// word, swapped or not.
			engs[2].Store64NonTx(lockOff, 9) // node 2's record is held by someone else
			b := newBatch()
			won, wonHdr := b.PostCAS(qp1, lockOff, 0, 5), b.PostRead(qp1, lockOff, 16)
			lost, lostHdr := b.PostCAS(qp2, lockOff, 0, 5), b.PostRead(qp2, lockOff, 16)
			if err := b.Execute(); err != nil {
				t.Fatal(err)
			}
			if !won.Swapped || binary.LittleEndian.Uint64(wonHdr.Data) != 5 {
				t.Fatalf("READ behind a won CAS: swapped=%v, lock word %d, want 5", won.Swapped, binary.LittleEndian.Uint64(wonHdr.Data))
			}
			if lost.Swapped || binary.LittleEndian.Uint64(lostHdr.Data) != 9 {
				t.Fatalf("READ behind a lost CAS: swapped=%v, lock word %d, want the holder's 9", lost.Swapped, binary.LittleEndian.Uint64(lostHdr.Data))
			}

			// Write-back + unlock: round r locks the record with word r, then
			// posts WRITE value=r and, behind it, CAS r->0. A reader that has
			// seen the record locked in round r must never afterwards see it
			// unlocked with an older value.
			engs[1].Store64NonTx(lockOff, 0)
			const rounds = 2000
			stop := make(chan struct{})
			readerDone := make(chan error, 1)
			go func() {
				var rclk sim.Clock
				rqp := net.NewQP(2, 1, &rclk)
				var lastLocked uint64
				for {
					select {
					case <-stop:
						readerDone <- nil
						return
					default:
					}
					rec, err := rqp.Read(lockOff, 16, nil)
					if err != nil {
						readerDone <- err
						return
					}
					lock, val := binary.LittleEndian.Uint64(rec), binary.LittleEndian.Uint64(rec[valOff:])
					if lock != 0 {
						lastLocked = lock
					} else if val < lastLocked {
						readerDone <- fmt.Errorf("record unlocked with value %d after round %d locked it", val, lastLocked)
						return
					}
				}
			}()
			for r := uint64(1); r <= rounds; r++ {
				if _, ok, err := qp1.CAS(lockOff, 0, r); err != nil || !ok {
					t.Fatalf("round %d lock: ok=%v err=%v", r, ok, err)
				}
				b := newBatch()
				b.PostWrite64(qp1, valOff, r)
				unlock := b.PostCAS(qp1, lockOff, r, 0)
				if err := b.Execute(); err != nil || !unlock.Swapped {
					t.Fatalf("round %d write-back+unlock: swapped=%v err=%v", r, unlock.Swapped, err)
				}
			}
			close(stop)
			if err := <-readerDone; err != nil {
				t.Fatal(err)
			}

			// A target that dies between post and doorbell fails the CAS AND
			// the READ behind it; the other QP's pair is untouched.
			engs[2].Store64NonTx(lockOff, 0)
			b = newBatch()
			deadCAS, deadHdr := b.PostCAS(qp1, lockOff, 0, 5), b.PostRead(qp1, lockOff, 16)
			liveCAS, liveHdr := b.PostCAS(qp2, lockOff, 0, 5), b.PostRead(qp2, lockOff, 16)
			net.NIC(1).Kill()
			if err := b.Execute(); err != ErrNodeDead {
				t.Fatalf("Execute err = %v, want ErrNodeDead", err)
			}
			if deadCAS.Err != ErrNodeDead || deadHdr.Err != ErrNodeDead || deadCAS.Swapped || deadHdr.Data != nil {
				t.Fatalf("dead target: CAS err=%v swapped=%v, READ err=%v data=%v", deadCAS.Err, deadCAS.Swapped, deadHdr.Err, deadHdr.Data)
			}
			if liveCAS.Err != nil || !liveCAS.Swapped || liveHdr.Err != nil || binary.LittleEndian.Uint64(liveHdr.Data) != 5 {
				t.Fatalf("live target: CAS err=%v swapped=%v, READ err=%v", liveCAS.Err, liveCAS.Swapped, liveHdr.Err)
			}
			if got := engs[1].Load64NonTx(lockOff); got != 0 {
				t.Fatalf("dead target's lock word moved to %d", got)
			}
		})
	}
}

// TestBatchEmptyChargesNothing: an empty doorbell (e.g. replicate() with all
// targets dead-node-skipped) must not advance the clock.
func TestBatchEmptyChargesNothing(t *testing.T) {
	var clk sim.Clock
	b := NewBatch(&clk)
	if err := b.Execute(); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != 0 {
		t.Fatalf("empty batch advanced clock to %d", clk.Now())
	}
}
