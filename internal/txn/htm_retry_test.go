package txn

import (
	"testing"

	"drtmr/internal/htm"
	"drtmr/internal/obs"
)

// htmRegions counts the HTM regions rec saw end (obs.EvHTM), all and by
// abort cause (index 0: committed).
func htmRegions(rec *obs.Recorder) (n uint64, byCause [htm.CauseSpurious + 1]uint64) {
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvHTM {
			n++
			byCause[ev.Detail]++
		}
	}
	return n, byCause
}

// TestHTMRetryByCause: a failed HTM region's retry follows its abort cause
// (htmRetryAfter). One worker on node 0 of three runs transfers over local
// keys only, so nothing else can hold a line it touches. Its regions are
// counted from its trace, one obs.EvHTM event per region.
//
// (a) Under a 10 % per-operation spurious-abort probability most regions
// abort, and none of those aborts waits: the reads and the commit region
// retry at once, and a commit whose region aborts 16 times runs the fallback
// handler, whose relock on a single worker misses nothing. No backoff at
// any site.
//
// (b) Under htmNeverCommits the commit region over two records aborts on
// capacity. Its first attempt is its last: each commit begins one commit
// region (besides one region per local read), which ends on capacity, and
// then runs the fallback handler, again with no backoff.
func TestHTMRetryByCause(t *testing.T) {
	const iters = 50
	cases := []struct {
		name string
		cfg  htm.Config
		keys []uint64
	}{
		{name: "spurious", cfg: htm.Config{SpuriousAbortProb: 0.1, Seed: 9}, keys: []uint64{0, 3, 6, 9}},
		{name: "capacity", cfg: htmNeverCommits, keys: localKeys2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 3, 1, c.cfg)
			w.load(t, 12, 1000)
			wk := w.engines[0].NewWorker(0)
			rec := wk.EnableTrace(0)
			for i := 0; i < iters; i++ {
				if err := runTransfer(wk, c.keys); err != nil {
					t.Fatal(err)
				}
			}
			regions, byCause := htmRegions(rec)
			if rec.Dropped() != 0 {
				t.Fatalf("trace ring dropped %d events", rec.Dropped())
			}
			st := &wk.Stats
			if st.Committed != iters || st.Retries != 0 {
				t.Fatalf("committed %d of %d with %d retries", st.Committed, iters, st.Retries)
			}
			if st.Backoffs != 0 {
				t.Errorf("%d backoffs (by site %v), want 0", st.Backoffs, st.BackoffSites)
			}
			switch c.name {
			case "spurious":
				if byCause[htm.CauseSpurious] == 0 {
					t.Fatal("no spurious abort happened")
				}
				t.Logf("%d spurious aborts in %d regions, %d fallbacks", byCause[htm.CauseSpurious], regions, st.Fallbacks)
			case "capacity":
				reads := uint64(len(c.keys))
				if regions != iters*(reads+1) {
					t.Errorf("%d regions began, want %d: %d reads and one commit region per commit", regions, iters*(reads+1), reads)
				}
				if n := byCause[htm.CauseCapacity]; n != iters {
					t.Errorf("%d capacity aborts, want one per commit (%d)", n, iters)
				}
				if st.Fallbacks != iters {
					t.Errorf("%d fallbacks, want %d", st.Fallbacks, iters)
				}
			}
		})
	}
}
