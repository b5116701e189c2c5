package main

import (
	"encoding/binary"
	"runtime"
	"time"

	"drtmr"
	"drtmr/internal/htm"
	"drtmr/internal/memstore"
	"drtmr/internal/obs"
	"drtmr/internal/oplog"
	"drtmr/internal/rdma"
	"drtmr/internal/serve/wire"
	"drtmr/internal/sim"
)

// Host layer probes: each drives one layer through its public functions in a
// tight loop and reports host ns/op and allocs/op. They answer "what does
// one call into this layer cost the simulator", which the end-to-end
// host_cpu_us_per_txn is a sum of.

// probe times batches of op until budget has elapsed (at least one batch, at
// most limit when limit > 0) and returns the median batch's ns per operation
// and the allocations per operation over all batches. op(n) performs n
// operations.
func probe(budget time.Duration, batch, limit int, op func(n int)) (ns, allocs float64) {
	op(1) // first-call set-up (lazy maps, buffer growth) is not steady state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var perOp []float64
	for start := time.Now(); len(perOp) == 0 || (time.Since(start) < budget && len(perOp) != limit); {
		t0 := time.Now()
		op(batch)
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	runtime.ReadMemStats(&m1)
	return median(perOp), float64(m1.Mallocs-m0.Mallocs) / float64(len(perOp)*batch)
}

func balance(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// remoteKeys8 are eight keys on shards 1 and 2 under key%3, all remote to a
// worker on node 0: the transaction of BenchmarkCommitVerbLatency
// (internal/txn). The repo pins its virtual cost at 20560 ns, an average that
// includes the cold first commit; steady state is 20500.
var remoteKeys8 = []uint64{1, 2, 4, 5, 7, 8, 10, 11}

const probeTable = 1

// rewrite is a transaction body that reads and rewrites keys base+k.
func rewrite(keys []uint64, base uint64) func(tx *drtmr.Tx) error {
	return func(tx *drtmr.Tx) error {
		for _, k := range keys {
			v, err := tx.Read(probeTable, base+k)
			if err != nil {
				return err
			}
			if err := tx.Write(probeTable, base+k, balance(binary.LittleEndian.Uint64(v)+1)); err != nil {
				return err
			}
		}
		return nil
	}
}

func must(err error) {
	if err != nil {
		panic(err) // a probe's fixed, conflict-free input cannot fail
	}
}

// runProbes runs every layer probe and reports <name>_host_ns and
// <name>_allocs for each.
func runProbes(ms *metricSet, budget time.Duration) {
	limited := func(name string, batch, limit int, op func(n int)) {
		ns, allocs := probe(budget, batch, limit, op)
		ms.set(name+"_host_ns", ns)
		ms.set(name+"_allocs", allocs)
	}
	run := func(name string, batch int, op func(n int)) { limited(name, batch, 0, op) }

	// htm: one small region, and the non-transactional CAS RDMA atomics use.
	eng := htm.NewEngine(make([]byte, 1<<16), htm.Config{})
	run("htm.region", 1000, func(n int) {
		for i := 0; i < n; i++ {
			t := eng.Begin()
			a, err := t.Load64(0)
			must(err)
			b, err := t.Load64(64)
			must(err)
			must(t.Store64(128, a+b+1))
			must(t.Commit())
		}
	})
	run("htm.nontx_cas", 1000, func(n int) {
		for i := 0; i < n; i++ {
			prev := eng.Load64NonTx(256)
			eng.CAS64NonTx(256, prev, prev+1)
		}
	})

	// rdma: one doorbell of 8 verbs to two targets.
	net := rdma.NewNetwork(3, rdma.Config{NICBytesPerSec: rdma.NICBandwidth56G})
	for i := 0; i < 3; i++ {
		net.Attach(rdma.NodeID(i), htm.NewEngine(make([]byte, 1<<16), htm.Config{}))
	}
	var clk sim.Clock
	qps := []*rdma.QP{net.NewQP(0, 1, &clk), net.NewQP(0, 2, &clk)}
	batch := rdma.NewBatch(&clk)
	run("rdma.batch_per_verb", 8*200, func(n int) {
		for i := 0; i < n; i += 8 {
			for v := 0; v < 8; v++ {
				batch.PostRead64(qps[v%2], uint64(64*v))
			}
			must(batch.Execute())
		}
	})

	// memstore: hash lookup, B+-tree get, record insert.
	const rows, capacity = 1 << 16, 1 << 19
	seng := htm.NewEngine(make([]byte, 128<<20), htm.Config{})
	store := memstore.NewStore(seng, memstore.NewArena(seng, 0))
	tbl := store.CreateTable(probeTable, memstore.TableSpec{Name: "probe", ValueSize: 16, ExpectedRows: capacity, Ordered: true})
	for k := uint64(0); k < rows; k++ {
		_, err := tbl.Insert(k, balance(k))
		must(err)
	}
	var key uint64
	next := func() uint64 { key = (key*2862933555777941757 + 3037000493) % rows; return key }
	run("memstore.hash_lookup", 1000, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := tbl.Lookup(next()); !ok {
				panic("probe: loaded key missing")
			}
		}
	})
	run("memstore.btree_get", 1000, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := tbl.Ordered().Get(next()); !ok {
				panic("probe: loaded key missing")
			}
		}
	})
	// Inserts fill the table, so this probe ends when the table is full if
	// the budget has not run out first.
	fresh, val := uint64(rows), balance(1)
	limited("memstore.insert", 1000, (capacity-rows)/1000-1, func(n int) {
		for i := 0; i < n; i++ {
			_, err := tbl.Insert(fresh, val)
			must(err)
			fresh++
		}
	})

	// oplog: append one update entry to a remote ring and apply it.
	geo := oplog.Geometry{Base: 4096, Size: 1 << 20, HeadOff: 64, MarkOff: 128}
	lnet := rdma.NewNetwork(2, rdma.Config{})
	var lengs [2]*htm.Engine
	for i := range lengs {
		lengs[i] = htm.NewEngine(make([]byte, 4<<20), htm.Config{})
		lnet.Attach(rdma.NodeID(i), lengs[i])
	}
	lstore := memstore.NewStore(lengs[1], memstore.NewArena(lengs[1], geo.Base+geo.Size))
	_, err := lstore.CreateTable(probeTable, memstore.TableSpec{Name: "probe", ValueSize: 16, ExpectedRows: 128}).Insert(5, balance(0))
	must(err)
	var lclk sim.Clock
	writer, applier, lqp := oplog.NewWriter(geo), oplog.NewApplier(lengs[1], lstore, geo, nil), lnet.NewQP(0, 1, &lclk)
	seq := uint64(2)
	run("oplog.append", 500, func(n int) {
		for i := 0; i < n; i++ {
			entry := oplog.Encode(seq, []oplog.Rec{{Kind: oplog.KindUpdate, Table: probeTable, Key: 5, Seq: seq, Value: val}})
			must(writer.Append(lqp, entry))
			if _, err := applier.Poll(); err != nil {
				panic(err)
			}
			seq += 2
		}
	})

	// wire: one call and its result, encoded and decoded.
	var cbuf, rbuf []byte
	args := balance(7)
	run("wire.codec", 1000, func(n int) {
		for i := 0; i < n; i++ {
			var err error
			cbuf, err = wire.AppendCall(cbuf[:0], uint64(i), 0, "payment", args)
			must(err)
			_, err = wire.Decode(cbuf)
			must(err)
			rbuf, err = wire.AppendResult(rbuf[:0], uint64(i), wire.StatusOK, 0, 0, 0, "", args)
			must(err)
			_, err = wire.Decode(rbuf)
			must(err)
		}
	})

	// obs and sim primitives.
	rec := obs.NewRecorder(0, 0, 1<<12)
	run("obs.record", 10000, func(n int) {
		for i := 0; i < n; i++ {
			rec.Record(obs.EvPhase, 1, 0, 8, uint64(i), int64(i), int64(i)+100)
		}
	})
	var hist obs.Histogram
	run("obs.hist_record", 10000, func(n int) {
		for i := 0; i < n; i++ {
			hist.Record(int64(i) * 37)
		}
	})
	var pclk sim.Clock
	run("sim.clock", 10000, func(n int) {
		for i := 0; i < n; i++ {
			pclk.Advance(time.Nanosecond)
			pclk.AdvanceTo(pclk.Now() + 1)
		}
	})
	var res sim.Resource
	run("sim.resource", 10000, func(n int) {
		for i := 0; i < n; i++ {
			pclk.AdvanceTo(res.Use(pclk.Now(), 10*time.Nanosecond))
		}
	})

	// txn: whole commits on a 3-node world with unlimited NIC bandwidth (the
	// configuration of internal/txn's pinned benchmarks).
	db, err := drtmr.Open(drtmr.Options{Nodes: 3, NICBandwidth: -1})
	must(err)
	defer db.Close()
	db.CreateTable(probeTable, drtmr.TableSpec{Name: "acct", ValueSize: 16, ExpectedRows: 1024})
	for k := uint64(0); k < 48; k++ {
		db.MustLoad(probeTable, k, balance(1000))
	}
	sess := db.Session(0)
	local := rewrite([]uint64{0, 3}, 0)
	run("txn.local_commit", 500, func(n int) {
		for i := 0; i < n; i++ {
			must(sess.Update(local))
		}
	})
	w := sess.Worker()
	remote := rewrite(remoteKeys8, 0)
	must(sess.Update(remote)) // fills the location cache: the virtual cost below is steady state
	virt0, commits0 := w.Clk.Now(), w.Stats.Committed
	seqNs, seqAllocs := probe(budget, 100, 0, func(n int) {
		for i := 0; i < n; i++ {
			must(sess.Update(remote))
		}
	})
	ms.set("txn.remote8_commit_host_ns", seqNs)
	ms.set("txn.remote8_commit_allocs", seqAllocs)
	ms.set("txn.remote8_commit_virt_ns", float64(w.Clk.Now()-virt0)/float64(w.Stats.Committed-commits0))

	// The same transaction on 4 coroutine slots (disjoint key sets, base
	// 12×slot keeps every key remote): what it costs beyond the sequential
	// run, per scheduling yield, is the price of one coroutine hand-off.
	yields0, commits0 := w.Stats.CoYields, w.Stats.Committed
	coNs, coAllocs := probe(budget, 100, 0, func(n int) {
		w.RunCoroutines(4, func(slot int) {
			body := rewrite(remoteKeys8, uint64(12*slot))
			for i := 0; i < n/4; i++ {
				must(sess.Update(body))
			}
		})
	})
	yieldsPerTxn := float64(w.Stats.CoYields-yields0) / float64(w.Stats.Committed-commits0)
	ms.set("txn.coro_yield_host_ns", (coNs-seqNs)/yieldsPerTxn)
	ms.set("txn.coro_yield_allocs", (coAllocs-seqAllocs)/yieldsPerTxn)
}
