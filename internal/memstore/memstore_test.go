package memstore

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"drtmr/internal/htm"
	"drtmr/internal/sim"
)

func newTestStore(size int) *Store {
	eng := htm.NewEngine(make([]byte, sim.AlignUp(size)), htm.Config{})
	return NewStore(eng, NewArena(eng, 0))
}

func TestRecordGeometry(t *testing.T) {
	cases := []struct {
		valueSize, lines int
	}{
		{0, 1}, {1, 1}, {40, 1}, {41, 2}, {102, 2}, {103, 3}, {164, 3}, {165, 4},
	}
	for _, c := range cases {
		if got := RecordLines(c.valueSize); got != c.lines {
			t.Errorf("RecordLines(%d) = %d, want %d", c.valueSize, got, c.lines)
		}
		if RecordBytes(c.valueSize) != c.lines*sim.CachelineSize {
			t.Errorf("RecordBytes(%d) mismatch", c.valueSize)
		}
	}
}

func TestRecordCodecRoundtrip(t *testing.T) {
	f := func(data []byte, inc, seq uint64) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		rec := BuildRecordImage(len(data), data, inc, seq)
		if RecInc(rec) != inc || RecSeq(rec) != seq || RecLock(rec) != 0 {
			return false
		}
		if !VersionsConsistent(rec) {
			return false
		}
		return bytes.Equal(GatherValue(rec, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionsDetectTornRecord(t *testing.T) {
	value := make([]byte, 150) // 3 cachelines
	rec := BuildRecordImage(len(value), value, 1, 4)
	if !VersionsConsistent(rec) {
		t.Fatal("fresh record should be consistent")
	}
	// Simulate a torn RDMA view: line 2 carries the next update's version.
	newRec := BuildRecordImage(len(value), value, 1, 6)
	copy(rec[2*sim.CachelineSize:], newRec[2*sim.CachelineSize:3*sim.CachelineSize])
	if VersionsConsistent(rec) {
		t.Fatal("torn record must be detected")
	}
}

func TestLockWordEncoding(t *testing.T) {
	for _, owner := range []uint32{0, 1, 5, 1 << 20} {
		w := LockWord(owner)
		if w == 0 {
			t.Fatalf("lock word for owner %d is zero (means free)", owner)
		}
		got, held := LockOwner(w)
		if !held || got != owner {
			t.Fatalf("LockOwner(LockWord(%d)) = %d,%v", owner, got, held)
		}
	}
	if _, held := LockOwner(0); held {
		t.Fatal("zero word must decode as free")
	}
}

func TestSeqParityHelpers(t *testing.T) {
	if !SeqIsCommittable(0) || !SeqIsCommittable(8) || SeqIsCommittable(3) {
		t.Fatal("parity check wrong")
	}
	if ClosestCommittable(3) != 4 || ClosestCommittable(4) != 4 || ClosestCommittable(5) != 6 {
		t.Fatal("ClosestCommittable wrong")
	}
}

func TestPropertySeqParityStateMachine(t *testing.T) {
	// Property (Table 4): starting committable, +1 (HTM update) makes a
	// record uncommittable, a further +1 (makeup after replication) makes
	// it committable again, and the value equals ClosestCommittable of
	// any point during the window.
	f := func(start uint64) bool {
		seq := start &^ 1 // committable
		inHTM := seq + 1
		if SeqIsCommittable(inHTM) {
			return false
		}
		final := inHTM + 1
		return SeqIsCommittable(final) &&
			ClosestCommittable(seq) == seq &&
			ClosestCommittable(inHTM) == final
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashInsertLookupDelete(t *testing.T) {
	s := newTestStore(1 << 22)
	h := NewHashTable(s.eng, s.arena, 8) // tiny: forces chains
	const n = 200
	for i := uint64(0); i < n; i++ {
		if err := h.Insert(i, i*10+1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := h.Insert(5, 1); err != ErrKeyExists {
		t.Fatalf("duplicate insert: %v", err)
	}
	for i := uint64(0); i < n; i++ {
		off, ok := h.Lookup(i)
		if !ok || off != i*10+1 {
			t.Fatalf("lookup %d: %d %v", i, off, ok)
		}
	}
	if _, ok := h.Lookup(n + 5); ok {
		t.Fatal("phantom key")
	}
	for i := uint64(0); i < n; i += 2 {
		off, err := h.Delete(i)
		if err != nil || off != i*10+1 {
			t.Fatalf("delete %d: %d %v", i, off, err)
		}
	}
	if _, err := h.Delete(0); err != ErrKeyNotFound {
		t.Fatalf("double delete: %v", err)
	}
	for i := uint64(0); i < n; i++ {
		_, ok := h.Lookup(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("post-delete lookup %d: %v", i, ok)
		}
	}
	// Slots freed by delete are reusable.
	for i := uint64(0); i < n; i += 2 {
		if err := h.Insert(i, i+7); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
}

func TestHashZeroKey(t *testing.T) {
	s := newTestStore(1 << 20)
	h := NewHashTable(s.eng, s.arena, 16)
	if err := h.Insert(0, 123); err != nil {
		t.Fatalf("key 0: %v", err)
	}
	off, ok := h.Lookup(0)
	if !ok || off != 123 {
		t.Fatalf("lookup 0: %d %v", off, ok)
	}
}

func TestHashConcurrent(t *testing.T) {
	s := newTestStore(1 << 22)
	h := NewHashTable(s.eng, s.arena, 64)
	var wg sync.WaitGroup
	const perWorker = 100
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perWorker; i++ {
				k := base*perWorker + i
				if err := h.Insert(k, k+1); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	for k := uint64(0); k < 4*perWorker; k++ {
		off, ok := h.Lookup(k)
		if !ok || off != k+1 {
			t.Fatalf("lookup %d after concurrent insert: %d %v", k, off, ok)
		}
	}
}

func TestBucketRemoteParse(t *testing.T) {
	// A remote machine parses a fetched bucket image with the same
	// geometry helpers; verify against the local path.
	s := newTestStore(1 << 20)
	h := NewHashTable(s.eng, s.arena, 16)
	for i := uint64(0); i < 40; i++ {
		if err := h.Insert(i, 1000+i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 40; i++ {
		off := BucketOffFor(h.Base(), h.NumBuckets(), i)
		var found bool
		var got uint64
		for off != 0 {
			img := s.eng.ReadNonTx(off, 64, nil)
			rec, next, ok := ParseBucket(img, i)
			if ok {
				got, found = rec, true
				break
			}
			off = next
		}
		if !found || got != 1000+i {
			t.Fatalf("remote-style parse of key %d failed: %d %v", i, got, found)
		}
	}
}

func TestBTreeBasics(t *testing.T) {
	bt := NewBTree()
	const n = 2000
	// Insert a permutation.
	rng := sim.NewRand(7)
	perm := make([]int, n)
	rng.Perm(perm)
	for _, k := range perm {
		bt.Put(uint64(k), uint64(k)*2)
	}
	if bt.Len() != n {
		t.Fatalf("len: %d", bt.Len())
	}
	for k := uint64(0); k < n; k++ {
		v, ok := bt.Get(k)
		if !ok || v != k*2 {
			t.Fatalf("get %d: %d %v", k, v, ok)
		}
	}
	// Overwrite.
	bt.Put(5, 999)
	if v, _ := bt.Get(5); v != 999 {
		t.Fatalf("overwrite: %d", v)
	}
	if bt.Len() != n {
		t.Fatalf("overwrite changed len: %d", bt.Len())
	}
	// Scan range.
	var got []uint64
	bt.Scan(100, 110, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Fatalf("scan [100,110]: %v", got)
	}
	// Min / MinGE.
	if k, _, ok := bt.Min(); !ok || k != 0 {
		t.Fatalf("min: %d %v", k, ok)
	}
	if k, _, ok := bt.MinGE(1500); !ok || k != 1500 {
		t.Fatalf("minGE: %d %v", k, ok)
	}
	// Delete half.
	for k := uint64(0); k < n; k += 2 {
		if !bt.Delete(k) {
			t.Fatalf("delete %d", k)
		}
	}
	if bt.Delete(0) {
		t.Fatal("double delete")
	}
	for k := uint64(0); k < n; k++ {
		_, ok := bt.Get(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("post-delete get %d: %v", k, ok)
		}
	}
	if k, _, ok := bt.MinGE(100); !ok || k != 101 {
		t.Fatalf("minGE after delete: %d %v", k, ok)
	}
}

func TestBTreePropertyOrdered(t *testing.T) {
	f := func(keys []uint64) bool {
		bt := NewBTree()
		seen := make(map[uint64]bool)
		for _, k := range keys {
			bt.Put(k, k+1)
			seen[k] = true
		}
		if bt.Len() != len(seen) {
			return false
		}
		// Full scan must be sorted and complete.
		var prev uint64
		first := true
		count := 0
		bt.Scan(0, ^uint64(0), func(k, v uint64) bool {
			if !first && k <= prev {
				return false
			}
			if v != k+1 || !seen[k] {
				return false
			}
			prev, first = k, false
			count++
			return true
		})
		return count == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableInsertDeleteIncarnation(t *testing.T) {
	s := newTestStore(1 << 22)
	tbl := s.CreateTable(1, TableSpec{Name: "acct", ValueSize: 16, ExpectedRows: 64, Ordered: true})
	val := []byte("hello world 1234")
	off, err := tbl.Insert(42, val)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := tbl.Lookup(42); !ok || got != off {
		t.Fatalf("lookup: %d %v", got, ok)
	}
	if !bytes.Equal(tbl.ReadValueNonTx(off), val) {
		t.Fatal("value roundtrip")
	}
	img := s.eng.ReadNonTx(off, tbl.RecBytes, nil)
	inc1 := RecInc(img)
	if inc1 == 0 {
		t.Fatal("incarnation must start above 0")
	}
	if err := tbl.Delete(42); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(42); ok {
		t.Fatal("lookup after delete")
	}
	// Reinsert reuses the freed block with a strictly larger incarnation.
	off2, err := tbl.Insert(43, val)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off {
		t.Fatalf("free list should reuse block: %d vs %d", off2, off)
	}
	img2 := s.eng.ReadNonTx(off2, tbl.RecBytes, nil)
	if RecInc(img2) <= inc1 {
		t.Fatalf("incarnation did not advance: %d -> %d", inc1, RecInc(img2))
	}
}

// TestTableLoadMatchesInsert: Load builds byte for byte the memory Insert
// builds — records, main buckets, overflow chains, a refused duplicate's
// freed block — so a table loaded directly is the table the HTM path would
// have built, and Insert, Lookup and Delete keep working on it.
func TestTableLoadMatchesInsert(t *testing.T) {
	spec := TableSpec{Name: "acct", ValueSize: 16, ExpectedRows: 8, Ordered: true} // 16 buckets: long chains
	inserted, loaded := newTestStore(1<<20), newTestStore(1<<20)
	ti, tl := inserted.CreateTable(1, spec), loaded.CreateTable(1, spec)
	rng := sim.NewRand(7)
	for i := 0; i < 300; i++ {
		key := rng.Uint64() % 400 // some repeat: both must refuse them alike
		val := []byte{byte(key), byte(i)}
		offI, errI := ti.Insert(key, val)
		offL, errL := tl.Load(key, val)
		if offI != offL || errI != errL {
			t.Fatalf("key %d: Insert (%d, %v), Load (%d, %v)", key, offI, errI, offL, errL)
		}
	}
	if !bytes.Equal(inserted.eng.Mem(), loaded.eng.Mem()) {
		t.Fatal("Load laid the table out differently from Insert")
	}
	if _, err := tl.Load(1, make([]byte, spec.ValueSize+1)); err == nil {
		t.Fatal("Load took a value larger than the table's")
	}
	for key := uint64(0); key < 400; key++ {
		offI, okI := ti.Lookup(key)
		offL, okL := tl.Lookup(key)
		if offI != offL || okI != okL {
			t.Fatalf("lookup %d: inserted (%d, %v), loaded (%d, %v)", key, offI, okI, offL, okL)
		}
		if okL {
			if err := tl.Delete(key); err != nil {
				t.Fatalf("delete %d from the loaded table: %v", key, err)
			}
			if _, err := tl.Insert(key, []byte("again")); err != nil {
				t.Fatalf("reinsert %d into the loaded table: %v", key, err)
			}
		}
	}
}

func TestArenaReuse(t *testing.T) {
	s := newTestStore(1 << 16)
	a := s.arena
	o1 := a.Alloc(100)
	o2 := a.Alloc(100)
	if o1 == o2 {
		t.Fatal("distinct allocations collided")
	}
	if o1%sim.CachelineSize != 0 || o2%sim.CachelineSize != 0 {
		t.Fatal("allocations must be cacheline aligned")
	}
	a.Free(o1, 100)
	if got := a.Alloc(100); got != o1 {
		t.Fatalf("free list miss: %d want %d", got, o1)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	s := newTestStore(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	for i := 0; i < 1000; i++ {
		s.arena.Alloc(1024)
	}
}
