package htm

import (
	"errors"
	"testing"

	"drtmr/internal/sim"
)

// The line registry's bookkeeping rules. Whatever structure holds a region's
// footprint, a line counts once against each bound it is registered under,
// every registration ends with its region, and a line reused by a later
// region carries nothing of the earlier one.

// liveLines counts registry entries. An entry is dropped the moment its last
// registration ends, and a capacity abort creates none, so every entry holds
// a registration.
func liveLines(e *Engine) int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		n += len(s.lines)
		s.mu.Unlock()
	}
	return n
}

// registration returns lineIdx's registered writer and readers.
func registration(e *Engine, lineIdx uint64) (writer *Txn, readers []*Txn) {
	s := e.shardFor(lineIdx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.find(lineIdx); i >= 0 {
		return s.lines[i].writer, append([]*Txn(nil), s.lines[i].readers...)
	}
	return nil, nil
}

func lineOff(i int) uint64 { return uint64(i) * sim.CachelineSize }

func wantCapacity(t *testing.T, what string, err error) {
	t.Helper()
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Cause != CauseCapacity {
		t.Fatalf("%s: want capacity abort, got %v", what, err)
	}
}

// TestUpgradedLineCountsAgainstBothBounds: a line read and then written stays
// in the read footprint, so upgrading some of 8 read lines frees no read
// capacity, and it takes one write slot however often it is rewritten.
func TestUpgradedLineCountsAgainstBothBounds(t *testing.T) {
	e := newTestEngine(1<<16, Config{MaxReadLines: 8, MaxWriteLines: 6})
	tx := e.Begin()
	for i := 0; i < 8; i++ {
		if _, err := tx.Load64(lineOff(i)); err != nil {
			t.Fatalf("read line %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		for rep := 0; rep < 2; rep++ {
			if err := tx.Store64(lineOff(i), uint64(i)); err != nil {
				t.Fatalf("upgrade line %d: %v", i, err)
			}
		}
	}
	// Lines written without a read first take no read capacity.
	for i := 20; i < 22; i++ {
		if err := tx.Store64(lineOff(i), 1); err != nil {
			t.Fatalf("blind write line %d: %v", i, err)
		}
		if _, err := tx.Load64(lineOff(i)); err != nil {
			t.Fatalf("read own blind write line %d: %v", i, err)
		}
	}
	_, err := tx.Load64(lineOff(8))
	wantCapacity(t, "9th distinct read line", err)

	// Six write slots: four upgrades and two blind writes used them all.
	tx = e.Begin()
	for i := 0; i < 6; i++ {
		if _, err := tx.Load64(lineOff(i)); err != nil {
			t.Fatalf("read line %d: %v", i, err)
		}
		if err := tx.Store64(lineOff(i), 2); err != nil {
			t.Fatalf("write line %d: %v", i, err)
		}
	}
	wantCapacity(t, "7th write line", tx.Store64(lineOff(6), 2))
	if n := liveLines(e); n != 0 {
		t.Fatalf("%d registry entries after the capacity aborts, want 0", n)
	}
}

// TestRereadOfUpgradedLineRegistersNothing: once a region writes a line it
// read, reading it again neither re-registers the region as a reader nor
// takes read capacity.
func TestRereadOfUpgradedLineRegistersNothing(t *testing.T) {
	e := newTestEngine(1<<16, Config{MaxReadLines: 1})
	tx := e.Begin()
	if _, err := tx.Load64(lineOff(3)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Store64(lineOff(3), 9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if v, err := tx.Load64(lineOff(3)); err != nil || v != 9 {
			t.Fatalf("re-read of upgraded line: %d, %v", v, err)
		}
	}
	w, rs := registration(e, 3)
	if w != tx || len(rs) != 0 {
		t.Fatalf("upgraded line: writer %p readers %d, want writer %p and no readers", w, len(rs), tx)
	}
	if n := liveLines(e); n != 1 {
		t.Fatalf("%d registry entries, want 1", n)
	}
	_, err := tx.Load64(lineOff(4))
	wantCapacity(t, "second read line at MaxReadLines 1", err)
}

// TestRegistryEmptyAfterRegionEnds: however a region ends, none of its lines
// stay registered.
func TestRegistryEmptyAfterRegionEnds(t *testing.T) {
	// footprint reads a three-line span, upgrades one line of it and writes
	// one line blind.
	footprint := func(t *testing.T, tx *Txn) {
		t.Helper()
		if _, err := tx.Read(lineOff(1), 3*sim.CachelineSize, make([]byte, 3*sim.CachelineSize)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Store64(lineOff(2), 5); err != nil {
			t.Fatal(err)
		}
		if err := tx.Store64(lineOff(7), 5); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		end  func(t *testing.T, e *Engine, tx *Txn)
	}{
		{"commit", func(t *testing.T, _ *Engine, tx *Txn) {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"explicit", func(t *testing.T, _ *Engine, tx *Txn) { _ = tx.Abort(1) }},
		{"capacity", func(t *testing.T, _ *Engine, tx *Txn) {
			for i := 10; ; i++ {
				if err := tx.Store64(lineOff(i), 1); err != nil {
					wantCapacity(t, "write past MaxWriteLines", err)
					return
				}
			}
		}},
		{"external", func(t *testing.T, e *Engine, tx *Txn) {
			e.WriteNonTx(lineOff(1), []byte{1})
			if tx.Active() {
				t.Fatal("a non-transactional write to a read line left the region running")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngine(1<<16, Config{MaxWriteLines: 4})
			tx := e.Begin()
			footprint(t, tx)
			if n := liveLines(e); n != 4 {
				t.Fatalf("%d registry entries inside the region, want 4", n)
			}
			c.end(t, e, tx)
			if n := liveLines(e); n != 0 {
				t.Fatalf("%d registry entries after the region, want 0", n)
			}
		})
	}
}

// TestReregisteredLineCarriesNoStaleReader: a line whose registrations all
// ended (by commit or by abort) and that later regions register again lists
// only those later regions, so a writer aborts exactly the live readers and
// never waits on a finished one.
func TestReregisteredLineCarriesNoStaleReader(t *testing.T) {
	e := newTestEngine(1<<16, Config{})
	const l = 5
	done := e.Begin()
	if _, err := done.Load64(lineOff(l)); err != nil {
		t.Fatal(err)
	}
	if err := done.Commit(); err != nil {
		t.Fatal(err)
	}
	aborted := e.Begin()
	if _, err := aborted.Load64(lineOff(l)); err != nil {
		t.Fatal(err)
	}
	_ = aborted.Abort(2)

	r1, r2 := e.Begin(), e.Begin()
	for _, r := range []*Txn{r1, r2} {
		if _, err := r.Load64(lineOff(l)); err != nil {
			t.Fatal(err)
		}
	}
	w, rs := registration(e, l)
	if w != nil || len(rs) != 2 || !(rs[0] == r1 && rs[1] == r2 || rs[0] == r2 && rs[1] == r1) {
		t.Fatalf("re-registered line: writer %p readers %v, want only the two live readers", w, rs)
	}

	before := e.Snapshot().Conflicts
	wr := e.Begin()
	if err := wr.Store64(lineOff(l), 1); err != nil {
		t.Fatal(err)
	}
	if err := wr.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Conflicts - before; got != 2 {
		t.Fatalf("writer caused %d conflict aborts, want 2", got)
	}
	for _, r := range []*Txn{r1, r2} {
		var ae *AbortError
		if err := r.Commit(); !errors.As(err, &ae) || ae.Cause != CauseConflict {
			t.Fatalf("live reader: want conflict abort, got %v", err)
		}
	}
	if n := liveLines(e); n != 0 {
		t.Fatalf("%d registry entries at the end, want 0", n)
	}
}
