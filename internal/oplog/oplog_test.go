package oplog

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	recs := []Rec{
		{Kind: KindUpdate, Table: 3, Key: 42, Seq: 8, Value: []byte("hello")},
		{Kind: KindInsert, Table: 1, Key: 7, Seq: 2, Value: make([]byte, 100)},
		{Kind: KindDelete, Table: 2, Key: 9, Seq: 4},
	}
	buf := Encode(777, recs)
	if len(buf)%sim.CachelineSize != 0 {
		t.Fatalf("entry not padded: %d", len(buf))
	}
	txnID, got, err := Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if txnID != 777 || len(got) != 3 {
		t.Fatalf("decode: txn=%d n=%d", txnID, len(got))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || got[i].Table != recs[i].Table ||
			got[i].Key != recs[i].Key || got[i].Seq != recs[i].Seq ||
			!bytes.Equal(got[i].Value, recs[i].Value) {
			t.Fatalf("rec %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(txnID uint64, keys []uint64, blob []byte) bool {
		if len(keys) > 16 {
			keys = keys[:16]
		}
		if len(blob) > 200 {
			blob = blob[:200]
		}
		var recs []Rec
		for i, k := range keys {
			recs = append(recs, Rec{
				Kind: uint8(i%3) + 1, Table: memstore.TableID(i % 4),
				Key: k, Seq: uint64(i * 2), Value: blob,
			})
		}
		got, dec, err := Decode(Encode(txnID, recs), nil)
		if err != nil || got != txnID || len(dec) != len(recs) {
			return false
		}
		for i := range recs {
			if dec[i].Key != recs[i].Key || !bytes.Equal(dec[i].Value, recs[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := Decode(make([]byte, 4), nil); err == nil {
		t.Fatal("short entry accepted")
	}
	buf := Encode(1, []Rec{{Kind: KindUpdate, Table: 1, Key: 1, Seq: 2, Value: []byte("x")}})
	buf[5] ^= 0xFF // clobber magic
	if _, _, err := Decode(buf, nil); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// ringFixture builds a two-machine world: node 0 writes a log ring hosted on
// node 1, whose store has one table.
type ringFixture struct {
	net     *rdma.Network
	engs    [2]*htm.Engine
	stores  [2]*memstore.Store
	writer  *Writer
	applier *Applier
	qp      *rdma.QP
	clk     sim.Clock
}

func newRingFixture(t *testing.T, ringSize uint64) *ringFixture {
	t.Helper()
	f := &ringFixture{}
	f.net = rdma.NewNetwork(2, rdma.Config{})
	geo := Geometry{Base: 4096, Size: ringSize, HeadOff: 64, MarkOff: 128}
	for i := 0; i < 2; i++ {
		f.engs[i] = htm.NewEngine(make([]byte, 1<<22), htm.Config{})
		f.net.Attach(rdma.NodeID(i), f.engs[i])
		arena := memstore.NewArena(f.engs[i], geo.Base+geo.Size)
		f.stores[i] = memstore.NewStore(f.engs[i], arena)
		f.stores[i].CreateTable(1, memstore.TableSpec{
			Name: "t", ValueSize: 64, ExpectedRows: 128,
		})
	}
	f.writer = NewWriter(geo)
	f.applier = NewApplier(f.engs[1], f.stores[1], geo, nil)
	f.qp = f.net.NewQP(0, 1, &f.clk)
	return f
}

func val(s string) []byte {
	b := make([]byte, 64)
	copy(b, s)
	return b
}

func TestRingAppendApply(t *testing.T) {
	f := newRingFixture(t, 1<<16)
	entry := Encode(1, []Rec{{Kind: KindInsert, Table: 1, Key: 5, Seq: 2, Value: val("v1")}})
	if err := f.writer.Append(f.qp, entry); err != nil {
		t.Fatal(err)
	}
	n, err := f.applier.Poll()
	if err != nil || n != 1 {
		t.Fatalf("poll: %d %v", n, err)
	}
	tbl := f.stores[1].Table(1)
	off, ok := tbl.Lookup(5)
	if !ok {
		t.Fatal("backup insert missing")
	}
	if !bytes.Equal(tbl.ReadValueNonTx(off), val("v1")) {
		t.Fatal("backup value wrong")
	}
	img := f.engs[1].ReadNonTx(off, tbl.RecBytes, nil)
	if memstore.RecSeq(img) != 2 {
		t.Fatalf("backup seq: %d", memstore.RecSeq(img))
	}
}

func TestApplySeqMonotonic(t *testing.T) {
	f := newRingFixture(t, 1<<16)
	// Apply seq 4 then a stale seq 2: the stale one must not regress.
	e1 := Encode(1, []Rec{{Kind: KindUpdate, Table: 1, Key: 9, Seq: 4, Value: val("new")}})
	e2 := Encode(2, []Rec{{Kind: KindUpdate, Table: 1, Key: 9, Seq: 2, Value: val("old")}})
	if err := f.writer.Append(f.qp, e1); err != nil {
		t.Fatal(err)
	}
	if err := f.writer.Append(f.qp, e2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.applier.Poll(); err != nil {
		t.Fatal(err)
	}
	tbl := f.stores[1].Table(1)
	off, _ := tbl.Lookup(9)
	if !bytes.Equal(tbl.ReadValueNonTx(off), val("new")) {
		t.Fatal("stale update regressed the record")
	}
}

func TestApplyDelete(t *testing.T) {
	f := newRingFixture(t, 1<<16)
	f.writer.Append(f.qp, Encode(1, []Rec{{Kind: KindInsert, Table: 1, Key: 3, Seq: 2, Value: val("x")}}))
	f.writer.Append(f.qp, Encode(2, []Rec{{Kind: KindDelete, Table: 1, Key: 3, Seq: 4}}))
	// Deleting a missing key is tolerated (replay).
	f.writer.Append(f.qp, Encode(3, []Rec{{Kind: KindDelete, Table: 1, Key: 99, Seq: 4}}))
	if _, err := f.applier.Poll(); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.stores[1].Table(1).Lookup(3); ok {
		t.Fatal("delete not applied")
	}
}

// TestInstallInsertOfPresentKey: an insert whose key is present installs
// nothing and reports off 0, unless the record is the insert's own: its
// value at an uncommittable seq below the insert's, which the insert
// advances, or at the insert's seq when that is a replicated final seq.
func TestInstallInsertOfPresentKey(t *testing.T) {
	for _, tc := range []struct {
		name    string
		have    string // the live record's value; the insert's is "v"
		haveSeq uint64
		seq     uint64 // the insert's
		own     bool
		wantSeq uint64
	}{
		{"shipped, not flipped", "v", 1, 2, true, 2},
		{"applied before the ship", "v", 2, 2, true, 2},
		{"another value, not flipped", "w", 1, 2, false, 1},
		{"another value", "w", 2, 2, false, 2},
		{"updated since", "v", 4, 2, false, 4},
		{"unreplicated", "v", 0, 0, false, 0},
		{"loaded, replicated", "v", 0, 2, false, 0},
		{"another insert in flight", "v", 1, 1, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newRingFixture(t, 1<<16)
			tbl := f.stores[1].Table(1)
			at, err := tbl.InsertWithSeq(5, val(tc.have), tc.haveSeq)
			if err != nil {
				t.Fatal(err)
			}
			var img []byte
			off, err := Install(f.stores[1], Rec{Kind: KindInsert, Table: 1, Key: 5, Seq: tc.seq, Value: val("v")}, &img)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]uint64{true: at}[tc.own]; off != want {
				t.Fatalf("off %d, want %d (the record is at %d)", off, want, at)
			}
			rec := f.engs[1].ReadNonTx(at, tbl.RecBytes, nil)
			if seq := memstore.RecSeq(rec); seq != tc.wantSeq || !bytes.Equal(tbl.ReadValueNonTx(at), val(tc.have)) {
				t.Fatalf("the record holds %q at seq %d; want %q at seq %d", tbl.ReadValueNonTx(at), seq, val(tc.have), tc.wantSeq)
			}
		})
	}
}

func TestRingWrapAround(t *testing.T) {
	// Ring of 4 lines; entries of 2 lines force wraps quickly.
	f := newRingFixture(t, 4*sim.CachelineSize)
	applied := 0
	for i := uint64(0); i < 20; i++ {
		entry := Encode(i, []Rec{{Kind: KindUpdate, Table: 1, Key: 1, Seq: (i + 1) * 2, Value: val("big")}})
		if len(entry) != 2*sim.CachelineSize {
			t.Fatalf("unexpected entry size %d", len(entry))
		}
		if err := f.writer.Append(f.qp, entry); err != nil {
			t.Fatal(err)
		}
		// Drain every other append so the writer must observe head
		// movement (the waitSpace path).
		if i%2 == 1 {
			n, err := f.applier.Poll()
			if err != nil {
				t.Fatal(err)
			}
			applied += n
		}
	}
	n, _ := f.applier.Poll()
	applied += n
	tbl := f.stores[1].Table(1)
	off, ok := tbl.Lookup(1)
	if !ok {
		t.Fatal("record missing after wraps")
	}
	img := f.engs[1].ReadNonTx(off, tbl.RecBytes, nil)
	if memstore.RecSeq(img) != 40 {
		t.Fatalf("final seq: %d want 40", memstore.RecSeq(img))
	}
	if applied != 20 {
		t.Fatalf("applied: %d", applied)
	}
}

func TestRingFullBlocksUntilTruncation(t *testing.T) {
	f := newRingFixture(t, 4*sim.CachelineSize)
	entry := Encode(1, []Rec{{Kind: KindUpdate, Table: 1, Key: 1, Seq: 2, Value: val("a")}})
	if len(entry) != 2*sim.CachelineSize {
		t.Fatalf("fixture expects a half-ring entry, got %d bytes", len(entry))
	}
	if err := f.writer.Append(f.qp, entry); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Two more entries: the second of these cannot fit until the
		// applier truncates.
		if err := f.writer.Append(f.qp, Encode(2, []Rec{{Kind: KindUpdate, Table: 1, Key: 1, Seq: 4, Value: val("b")}})); err != nil {
			done <- err
			return
		}
		done <- f.writer.Append(f.qp, Encode(3, []Rec{{Kind: KindUpdate, Table: 1, Key: 1, Seq: 6, Value: val("c")}}))
	}()
	// Second append must block until the applier truncates.
	select {
	case err := <-done:
		t.Fatalf("append to full ring returned early: %v", err)
	default:
	}
	if _, err := f.applier.Poll(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	f.applier.Poll()
	tbl := f.stores[1].Table(1)
	off, _ := tbl.Lookup(1)
	img := f.engs[1].ReadNonTx(off, tbl.RecBytes, nil)
	if memstore.RecSeq(img) != 6 {
		t.Fatalf("seq after unblock: %d", memstore.RecSeq(img))
	}
}

// TestMarkCommittedWhileAppenderWaits: an appender that finds the ring full
// holds the writer while it waits for truncation, and truncation waits for
// the watermark that MarkCommitted advances. The entries filling the ring
// belong to transactions still to mark them committed, so a MarkCommitted
// that needed the writer's mutex deadlocked with the appender. So did the
// backup side: the auxiliary thread that pushes this machine's watermarks
// also drains the rings other machines' appenders wait on.
func TestMarkCommittedWhileAppenderWaits(t *testing.T) {
	f := newRingFixture(t, 4*sim.CachelineSize)
	var toks []Token
	for i := uint64(1); i <= 2; i++ { // two half-ring entries, published, not committed
		entry := Encode(i, []Rec{{Kind: KindUpdate, Table: 1, Key: 1, Seq: 2 * i, Value: val("a")}})
		b := f.qp.Batch()
		tk, err := f.writer.Post(f.qp, b, entry)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Execute(); err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tk)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() { // the backup's auxiliary thread
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.applier.Poll(); err != nil {
				t.Error(err)
				return
			}
			sim.Spin(0)
		}
	}()
	done := make(chan error, 1)
	go func() {
		done <- f.writer.Append(f.qp, Encode(3, []Rec{{Kind: KindUpdate, Table: 1, Key: 1, Seq: 6, Value: val("c")}}))
	}()
	for f.writer.mu.TryLock() { // until the appender holds the writer
		f.writer.mu.Unlock()
		sim.Spin(0)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- f.writer.PushWatermark(f.net.NewQP(0, 1, new(sim.Clock)), false) }()
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the auxiliary thread's watermark push blocked behind an appender waiting for ring space")
	}
	marked := make(chan struct{})
	go func() {
		f.writer.MarkCommitted(toks[1].End())
		close(marked)
	}()
	select {
	case <-marked:
	case <-time.After(5 * time.Second):
		t.Fatal("MarkCommitted blocked behind an appender waiting for ring space")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the appender never got its space")
	}
}

// TestMarkCommittedWakesAtPushThreshold: MarkCommitted signals the
// writer's wake channel once the committed watermark is a push's worth
// (Size/8) ahead of the one pushed, on every call until a push lands, and
// not below it.
func TestMarkCommittedWakesAtPushThreshold(t *testing.T) {
	const size = 1 << 12
	f := newRingFixture(t, size)
	wake := make(chan struct{}, 1)
	f.writer.WakeOn(wake)
	woke := func() bool {
		select {
		case <-wake:
			return true
		default:
			return false
		}
	}
	const push = size / 8
	for _, c := range []struct {
		end    uint64
		pushed bool // PushWatermark first
		want   bool
	}{
		{push - 64, false, false},
		{push, false, true},
		{push + 64, false, true},   // not pushed yet: wakes again
		{2 * push, true, false},    // pushed at push+64: not a push ahead
		{2*push + 64, false, true}, // a push ahead of push+64
	} {
		if c.pushed {
			if err := f.writer.PushWatermark(f.qp, false); err != nil {
				t.Fatal(err)
			}
		}
		f.writer.MarkCommitted(c.end)
		if got := woke(); got != c.want {
			t.Fatalf("MarkCommitted(%d): woke %v, want %v", c.end, got, c.want)
		}
	}
	if got := f.engs[1].Load64NonTx(128); got != push+64 {
		t.Fatalf("remote watermark %d, want %d", got, push+64)
	}
}

func TestTornAppendInvisible(t *testing.T) {
	// A coordinator that dies after writing payload but before the header
	// leaves nothing visible: simulate by writing only the payload part.
	f := newRingFixture(t, 1<<12)
	entry := Encode(9, []Rec{{Kind: KindInsert, Table: 1, Key: 8, Seq: 2, Value: val("zz")}})
	if len(entry) > sim.CachelineSize {
		f.qp.Write(4096+sim.CachelineSize, entry[sim.CachelineSize:])
	}
	n, err := f.applier.Poll()
	if err != nil || n != 0 {
		t.Fatalf("half-written entry applied: %d %v", n, err)
	}
}

// TestApplyAllocFree: once warm, a backup applies an entry of several
// records — two updates, an insert and a delete of the inserted key — without
// an allocation. Its image lands in the buffer peek reuses, the records are
// decoded in place into the applier's slice, and each value is installed
// straight from the image. The writer side, posting into a batch it keeps
// from an encode buffer it keeps, allocates nothing either.
func TestApplyAllocFree(t *testing.T) {
	f := newRingFixture(t, 1<<16)
	b := f.qp.Batch()
	var entry []byte
	seq := uint64(0)
	cycle := func() {
		seq += 2
		entry = AppendEncode(entry[:0], seq, []Rec{
			{Kind: KindUpdate, Table: 1, Key: 1, Seq: seq, Value: val("one")},
			{Kind: KindUpdate, Table: 1, Key: 2, Seq: seq, Value: val("two")},
			{Kind: KindInsert, Table: 1, Key: 3, Seq: seq, Value: val("three")},
			{Kind: KindDelete, Table: 1, Key: 3, Seq: seq},
		})
		tk, err := f.writer.Post(f.qp, b, entry)
		if err == nil {
			err = b.Execute()
		}
		if err != nil {
			t.Fatal(err)
		}
		f.writer.MarkCommitted(tk.End())
		if err := f.writer.PushWatermark(f.qp, true); err != nil {
			t.Fatal(err)
		}
		b.Reset()
		if n, err := f.applier.Poll(); err != nil || n != 1 {
			t.Fatalf("poll: %d %v", n, err)
		}
	}
	cycle()
	if raceEnabled {
		for range 300 {
			cycle() // the ring wraps, uncounted
		}
	} else if allocs := testing.AllocsPerRun(300, cycle); allocs != 0 {
		t.Errorf("append and apply of a 4-record entry allocate %v times, want 0", allocs)
	}
	tbl := f.stores[1].Table(1)
	for k, want := range map[uint64][]byte{1: val("one"), 2: val("two")} {
		off, ok := tbl.Lookup(k)
		if !ok || !bytes.Equal(tbl.ReadValueNonTx(off), want) {
			t.Fatalf("record %d after the cycles: %v", k, ok)
		}
		if img := f.engs[1].ReadNonTx(off, tbl.RecBytes, nil); memstore.RecSeq(img) != seq {
			t.Fatalf("record %d at seq %d, want %d", k, memstore.RecSeq(img), seq)
		}
	}
	if _, ok := tbl.Lookup(3); ok {
		t.Fatal("the inserted-then-deleted record is still there")
	}
}

// TestScanSeesEachRecordsValue: recovery's Scan hands its callback records
// whose values alias the entry buffer, and every record still reads its own
// value there — not a neighbour's, nor one of an earlier entry's — across
// entries of different lengths.
func TestScanSeesEachRecordsValue(t *testing.T) {
	f := newRingFixture(t, 1<<16)
	want := map[uint64][]byte{}
	for e := uint64(1); e <= 4; e++ {
		var recs []Rec
		for i := uint64(0); i < e; i++ {
			k := e*10 + i
			want[k] = bytes.Repeat([]byte{byte(k)}, int(8*(i+1)))
			recs = append(recs, Rec{Kind: KindUpdate, Table: 1, Key: k, Seq: 2, Value: want[k]})
		}
		// Post without marking the entry committed: the applier may apply
		// but not truncate it, so Scan still walks it.
		b := f.qp.Batch()
		if _, err := f.writer.Post(f.qp, b, Encode(e, recs)); err != nil {
			t.Fatal(err)
		}
		if err := b.Execute(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.applier.Poll(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err := f.applier.Scan(func(txnID uint64, recs []Rec) error {
		if len(recs) != int(txnID) {
			t.Errorf("entry %d has %d records", txnID, len(recs))
		}
		for _, r := range recs {
			if !bytes.Equal(r.Value, want[r.Key]) {
				t.Errorf("entry %d record %d reads %x, want %x", txnID, r.Key, r.Value, want[r.Key])
			}
			seen++
		}
		return nil
	})
	if err != nil || seen != len(want) {
		t.Fatalf("scan: %d of %d records, %v", seen, len(want), err)
	}
}
