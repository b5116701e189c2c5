package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLiveHistSnapshotConcurrent snapshots a histogram while eight writers
// hammer LiveRecord. Must be race-detector-clean, every snapshot must be
// internally consistent (n equals the sum of its buckets), and successive
// snapshots must be monotone per bucket.
func TestLiveHistSnapshotConcurrent(t *testing.T) {
	var h Histogram
	const writers = 8
	const perWriter = 20000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.LiveRecord(int64(i%1000) * int64(w+1))
			}
		}(w)
	}
	go func() { wg.Wait(); stop.Store(true) }()

	var prev Histogram
	snaps := 0
	for !stop.Load() {
		s := h.Snapshot()
		snaps++
		var n uint64
		s.Fold(func(bucket int, count uint64) {
			n += count
			if pc := prev.counts[bucket]; count < pc {
				t.Errorf("bucket %d shrank: %d -> %d", bucket, pc, count)
			}
		})
		if n != s.Count() {
			t.Fatalf("snapshot inconsistent: bucket sum %d != n %d", n, s.Count())
		}
		prev = s
	}
	final := h.Snapshot()
	if got, want := final.Count(), uint64(writers*perWriter); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
	var sum int64
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			sum += int64(i%1000) * int64(w+1)
		}
	}
	if final.Sum() != sum {
		t.Fatalf("final sum %d, want %d", final.Sum(), sum)
	}
	if snaps == 0 {
		t.Fatal("no snapshots raced with recording")
	}
}

// TestTypedHistLiveSnapshot checks the per-type variant: typed counts land in
// the right histogram and in the aggregate while a snapshot races.
func TestTypedHistLiveSnapshot(t *testing.T) {
	th := NewTypedHist("a", "b")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				th.LiveRecord(w%2, int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		s := th.Snapshot()
		// The snapshot's aggregate is derived from the typed copies, so it
		// matches their sum exactly — even when records land mid-copy or the
		// snapshotting goroutine is preempted between bucket loads.
		if sum := s.H[0].Count() + s.H[1].Count(); sum != s.All().Count() {
			t.Fatalf("typed sum %d != aggregate %d", sum, s.All().Count())
		}
		select {
		case <-done:
			f := th.Snapshot()
			if f.H[0].Count() != 10000 || f.H[1].Count() != 10000 || f.All().Count() != 20000 {
				t.Fatalf("final typed counts %d/%d/%d", f.H[0].Count(), f.H[1].Count(), f.All().Count())
			}
			return
		default:
		}
	}
}

// TestAbortMatrixSnapshotConcurrent exercises LiveRecord against racing
// Snapshots: race-clean, per-cell monotone, and exact at the end.
func TestAbortMatrixSnapshotConcurrent(t *testing.T) {
	var m AbortMatrix
	const writers = 4
	const perWriter = 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.LiveRecord(uint8(i%NumReasons), uint8(i%NumStages), i%NumSites)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prevTotal uint64
	for {
		s := m.Snapshot()
		if tot := s.Total(); tot < prevTotal {
			t.Fatalf("snapshot total shrank: %d -> %d", prevTotal, tot)
		} else {
			prevTotal = tot
		}
		select {
		case <-done:
			f := m.Snapshot()
			if f.Total() != writers*perWriter {
				t.Fatalf("final total %d, want %d", f.Total(), writers*perWriter)
			}
			return
		default:
		}
	}
}
