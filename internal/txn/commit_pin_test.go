package txn

import (
	"testing"

	"drtmr/internal/htm"
)

// localKeys2 are two keys that map to shard 0 under key%3 — local to a worker
// on node 0. Two local updates put two cachelines in the commit HTM region's
// write set, which htmNeverCommits' capacity of one cannot hold.
var localKeys2 = []uint64{0, 3}

// htmNeverCommits makes every commit-phase HTM region over two or more local
// records abort on capacity, so such a commit runs its region once and takes
// the §6.1 fallback handler every time — deterministically, unlike a spurious
// abort probability. Single-record regions (execution-phase reads, R.2 makeup
// flips) touch one cacheline and still commit.
var htmNeverCommits = htm.Config{MaxWriteLines: 1, MaxReadLines: 1}

// runTransfer reads and rewrites every key in keys in one transaction.
func runTransfer(w *Worker, keys ...[]uint64) error {
	return w.Run(func(tx *Txn) error {
		for _, ks := range keys {
			for _, k := range ks {
				v, err := tx.Read(tblAcct, k)
				if err != nil {
					return err
				}
				if err := tx.Write(tblAcct, k, encBal(decBal(v)+1)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// phasePin is one commit phase's verbs and doorbells per commit.
type phasePin struct{ verbs, doorbells uint64 }

// notPinned marks a cell whose virtual time is not reproducible.
const notPinned = -1

// TestCommitVirtualNsPinned pins the commit pipelines' cost model EXACTLY:
// total virtual nanoseconds and per-phase verb/doorbell counts of a run of
// single-worker commits of the 8-remote-record transfer, for every pipeline
// (drtmr batched and sequential, farm, both replicated 3-way, both with local
// records, and forced-fallback cells). A change to internal/txn that moves
// any of them by one nanosecond or one verb has changed behaviour, not just
// structure. 18060 and 66060 ns/commit are what BenchmarkCommitVerbLatency
// -benchtime 200x prints for batched and sequential. The commit issues 8 CAS
// (C.1), 8 READ (C.2), 8 WRITE (C.5) and 8 CAS (C.6): sequential accounting
// charges 32 full base latencies (8*2000 + 8*1500 + 8*1000 + 8*2000 = 52000
// ns), batched accounting one per doorbell, that of its slowest verb kind —
// two CAS latencies, 4000 ns. The ~14 us both share is the unbatched
// execution phase (8 remote READs) plus local HTM cost, so the end-to-end
// ratio is 3.66x while the commit phases alone differ 13x.
//
// Re-derived once, when the commit went from Fig 7's four doorbells to two
// (C.2's READs ride C.1's doorbell, C.5's WRITEs ride C.6's, on the queue
// pair's in-order guarantee). Per-phase VERBS are what they were — a verb
// counts to its own stage — and so is every sequential (per-verb) total. The
// doorbells of validate and writeback are 0, and each batched total lost the
// two base latencies a fused doorbell no longer pays: 1500 (READ) + 1000
// (WRITE) = 2500 ns/commit, e.g. 20560 -> 18060. The fallback cells fuse
// three pairs (C.1+C.2, the handler's relock + validate, its write-back +
// unlock): 28 verbs in 5 doorbells -> 28 in 4, and 2*1500 + 1000 = 4000
// ns/commit off 844453.
//
// Re-derived again when drtmr began checking, before C.1, the local records a
// transaction both read and writes (C.3's predicate outside the region, so a
// commit C.3 would reject rings no lock doorbell): each such record costs one
// PerValidate header check whenever C.1 has a remote target. Only the two
// drtmr cells with local updates have such records — 2 x 120 = +240 ns per
// commit: drtmr-locals 19440 -> 19680 ns/commit, drtmr-fallback 168090600 ->
// 168138600 in total. Verbs, doorbells and every other cell are unchanged.
//
// Re-derived for the replicated cells when R.1 went from two doorbells (every
// ring's payload, then every ring's header) to one, each header behind its
// own payload on the ring's queue pair: the 6 log WRITEs (payload and header
// to each of 3 rings; the 8-record entry spans several lines) now ring 1
// doorbell per commit, not 2, and drtmr-r3 and farm-r3 lose the second
// 1000 ns WRITE base: 20300 -> 19300 ns/commit. drtmr-fallback-r3's PhaseLog
// goes {6, 2} -> {6, 1}; every other cell is unchanged.
//
// Re-derived for drtmr-fallback when the commit region's retries began to
// follow the abort cause (htmRetryAfter): a capacity abort goes straight to
// the handler, since the same footprint aborts on every retry. The cell's
// commit ran 16 capacity-aborted regions (400 + 4 x 120 = 880 ns each) and
// 16 randomized backoffs (~800 us of the 840 693 ns/commit); it now runs one
// region and no backoff: 168138600 -> 5536000 in total, 27680 ns/commit.
// Verbs, doorbells and every other cell are unchanged.
//
// Replicated cells run 40 commits, not 200: past ~80 the 64 KiB log rings
// wrap and the writer waits on the backups' appliers, which is host timing.
func TestCommitVirtualNsPinned(t *testing.T) {
	cells := []struct {
		name       string
		proto      string
		replicas   int
		sequential bool
		htm        htm.Config
		locals     bool // also update localKeys2 (gives the HTM region work)
		iters      int
		totalNs    int64 // virtual ns of all iters commits together
		fallbacks  uint64
		phases     [NumPhases]phasePin // per commit
	}{
		{name: "drtmr-batched", proto: "drtmr", replicas: 1, iters: 200, totalNs: 200 * 18060,
			phases: [NumPhases]phasePin{PhaseLock: {8, 1}, PhaseValidate: {8, 0}, PhaseWriteBack: {8, 0}, PhaseUnlock: {8, 1}}},
		{name: "drtmr-sequential", proto: "drtmr", replicas: 1, iters: 200, sequential: true, totalNs: 200 * 66060,
			phases: [NumPhases]phasePin{PhaseLock: {8, 1}, PhaseValidate: {8, 0}, PhaseWriteBack: {8, 0}, PhaseUnlock: {8, 1}}},
		{name: "farm", proto: "farm", replicas: 1, iters: 200, totalNs: 200 * 18060,
			phases: [NumPhases]phasePin{PhaseLock: {8, 1}, PhaseValidate: {8, 0}, PhaseWriteBack: {8, 0}, PhaseUnlock: {8, 1}}},
		{name: "drtmr-r3", proto: "drtmr", replicas: 3, iters: 40, totalNs: 40 * 19300,
			phases: [NumPhases]phasePin{PhaseLock: {8, 1}, PhaseValidate: {8, 0}, PhaseLog: {6, 1}, PhaseWriteBack: {8, 0}, PhaseUnlock: {8, 1}}},
		{name: "farm-r3", proto: "farm", replicas: 3, iters: 40, totalNs: 40 * 19300,
			phases: [NumPhases]phasePin{PhaseLock: {8, 1}, PhaseValidate: {8, 0}, PhaseLog: {6, 1}, PhaseWriteBack: {8, 0}, PhaseUnlock: {8, 1}}},
		// Two local updates on top: drtmr checks them before C.1, then
		// validates and installs them in its HTM region; farm locks them by
		// loop-back CAS (10 lock verbs) and validates them from memory at
		// PerValidate each.
		{name: "drtmr-locals", proto: "drtmr", replicas: 1, iters: 200, locals: true, totalNs: 200 * 19680,
			phases: [NumPhases]phasePin{PhaseLock: {8, 1}, PhaseValidate: {8, 0}, PhaseWriteBack: {8, 0}, PhaseUnlock: {8, 1}}},
		{name: "farm-locals", proto: "farm", replicas: 1, iters: 200, locals: true, totalNs: 200 * 18800,
			phases: [NumPhases]phasePin{PhaseLock: {10, 1}, PhaseValidate: {8, 0}, PhaseWriteBack: {8, 0}, PhaseUnlock: {10, 1}}},
		// Forced fallback: C.1+C.2 run as usual, the one HTM attempt aborts on
		// capacity, then the handler releases (C.6-charged), relocks in three
		// per-node groups with the remote headers behind the CASes, validates
		// from them, and writes back + unlocks: 28 verbs in 4 doorbells.
		{name: "drtmr-fallback", proto: "drtmr", replicas: 1, iters: 200, htm: htmNeverCommits, locals: true,
			totalNs: 5536000, fallbacks: 200,
			phases: [NumPhases]phasePin{PhaseLock: {8, 1}, PhaseValidate: {8, 0}, PhaseWriteBack: {8, 0}, PhaseUnlock: {8, 1}, PhaseFallback: {28, 4}}},
		// Replicated fallback: the R.2 makeup regions race this node's own log
		// applier (it backs up the remote shards), and a lost race backs off —
		// so virtual time is not reproducible here; the verb counts are.
		{name: "drtmr-fallback-r3", proto: "drtmr", replicas: 3, iters: 40, htm: htmNeverCommits, locals: true,
			totalNs: notPinned, fallbacks: 40,
			phases: [NumPhases]phasePin{PhaseLock: {8, 1}, PhaseValidate: {8, 0}, PhaseLog: {6, 1}, PhaseWriteBack: {8, 0}, PhaseUnlock: {8, 1}, PhaseFallback: {28, 4}}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 3, c.replicas, c.htm)
			w.setProtocol(c.proto)
			for _, e := range w.engines {
				e.DisableVerbBatching = c.sequential
			}
			w.load(t, 12, 1000)
			wk := w.engines[0].NewWorker(0)
			keys := [][]uint64{remoteKeys8}
			if c.locals {
				keys = append(keys, localKeys2)
			}
			start := wk.Clk.Now()
			for i := 0; i < c.iters; i++ {
				if err := runTransfer(wk, keys...); err != nil {
					t.Fatal(err)
				}
			}
			total := int64(wk.Clk.Now() - start)
			if wk.Stats.Committed != uint64(c.iters) || wk.Stats.Retries != 0 {
				t.Fatalf("committed %d of %d with %d retries", wk.Stats.Committed, c.iters, wk.Stats.Retries)
			}
			if total != c.totalNs && c.totalNs != notPinned {
				t.Errorf("total virtual ns = %d (%.1f/commit), want %d", total, float64(total)/float64(c.iters), c.totalNs)
			}
			if wk.Stats.Fallbacks != c.fallbacks {
				t.Errorf("fallbacks = %d, want %d", wk.Stats.Fallbacks, c.fallbacks)
			}
			var got, want [NumPhases]phasePin
			for p := range got {
				got[p] = phasePin{wk.Stats.Phases[p].Verbs, wk.Stats.Phases[p].Batches}
				want[p] = phasePin{c.phases[p].verbs * uint64(c.iters), c.phases[p].doorbells * uint64(c.iters)}
			}
			if got != want {
				t.Errorf("per-phase {verbs, doorbells} over the run:\n got %v\nwant %v", got, want)
			}
		})
	}
}
