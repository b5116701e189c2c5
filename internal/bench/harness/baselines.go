package harness

import (
	"encoding/binary"

	"drtmr/internal/baseline"
	"drtmr/internal/baseline/calvin"
	"drtmr/internal/baseline/drtm"
	"drtmr/internal/baseline/silo"
	"drtmr/internal/bench/tpcc"
	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// The comparison baselines run TPC-C only, matching the figures they appear
// in (Figs 10, 11, 17, 18 and the Silo paragraph of §7.2). The transactions
// are written once, over baseline.Ctx, as the rows of tpccTxns; a system is
// an exec and a function that opens it and calls runMix (DESIGN.md, "Adding
// a TPC-C transaction or a baseline").

// mutation is one structural change a transaction makes beside its record
// updates: an index insert, or — row nil — a delete.
type mutation struct {
	table memstore.TableID
	key   uint64
	row   []byte
}

// apply makes the change on the worker's own machine: every TPC-C insert and
// delete is of a home-warehouse row. The one error that can occur is benign:
// two workers sharing a warehouse (Fig 18) deliver the same order and the
// second delete finds the row gone.
func (m mutation) apply(st *memstore.Store) {
	if m.row == nil {
		_ = st.Table(m.table).Delete(m.key)
		return
	}
	_, _ = st.Table(m.table).Insert(m.key, m.row)
}

// exec is one worker of one comparison system. Every system runs on
// DrTM+R's worker, whose clock and counters runMix reports, and whose own
// machine's store is where reconnaissance reads go (Silo's rows do none).
type exec struct {
	w *txn.Worker
	// run commits body over the declared refs, then makes the changes muts
	// lists (nil: none) — the rows the committed body decided on — at the
	// system's own price.
	run func(refs []baseline.Ref, body func(baseline.Ctx) error, muts func() []mutation) error
}

// drtmExec: DrTM ships a transaction's index mutations to the (local) host
// in one message, like DrTM+R.
func drtmExec(w *drtm.Worker) exec {
	return exec{w: w.Worker,
		run: func(refs []baseline.Ref, body func(baseline.Ctx) error, muts func() []mutation) error {
			if err := w.Run(refs, body); err != nil || muts == nil {
				return err
			}
			w.Clk.Advance(w.E.Costs.LocalAccess)
			for _, m := range muts() {
				m.apply(w.E.M.Store)
			}
			return nil
		}}
}

// calvinExec: Calvin schedules every inserted row as a locked single-record
// transaction; a delete rides the plan of the transaction that already holds
// the order and pays the store access only.
func calvinExec(w *calvin.Worker) exec {
	return exec{w: w.Worker,
		run: func(refs []baseline.Ref, body func(baseline.Ctx) error, muts func() []mutation) error {
			if err := w.Run(refs, body); err != nil || muts == nil {
				return err
			}
			for _, m := range muts() {
				if m.row != nil {
					_ = w.Insert(m.table, m.key, m.row) // as mutation.apply: nothing to report
					continue
				}
				w.Clk.Advance(w.E.Costs.LocalAccess)
				m.apply(w.E.M.Store)
			}
			return nil
		}}
}

// siloExec: Silo needs no declared set (refs are ignored) and inserts inside
// the transaction, as part of its write set.
func siloExec(w *silo.Worker) exec {
	return exec{w: w.Worker,
		run: func(_ []baseline.Ref, body func(baseline.Ctx) error, muts func() []mutation) error {
			return w.Run(func(tx *silo.Txn) error {
				if err := body(tx); err != nil || muts == nil {
					return err
				}
				for _, m := range muts() {
					_ = tx.Insert(m.table, m.key, m.row) // buffers; cannot fail
				}
				return nil
			})
		}}
}

// baselines opens and runs each comparison system; a fourth is one entry, one
// such function and one exec.
var baselines = map[System]func(Options) Result{
	SysDrTM: runDrTMBaseline, SysCalvin: runCalvinBaseline, SysSilo: runSiloBaseline,
}

func runDrTMBaseline(o Options) Result {
	c := buildCluster(o, 1)
	defer c.Stop()
	wcfg := tpccConfig(o)
	var engines []*drtm.Engine
	for _, m := range c.Machines {
		e := drtm.NewEngine(m, wcfg.Partitioner(m.ID))
		e.DisableVerbBatching = o.DisableVerbBatching
		engines = append(engines, e)
	}
	c.Start()
	return runMix(o, wcfg, 7, &tpccTxns, func(node, tid int) exec {
		return drtmExec(engines[node].NewWorker(tid))
	})
}

func runCalvinBaseline(o Options) Result {
	c := buildCluster(o, 1)
	defer c.Stop()
	wcfg := tpccConfig(o)
	// ITEM, which real Calvin replicates too, is read on the worker's own
	// machine, as DrTM's and DrTM+R's do.
	var engines []*txn.Engine
	for _, m := range c.Machines {
		engines = append(engines, txn.NewEngine(m, wcfg.Partitioner(m.ID)))
	}
	sys := calvin.New(len(c.Machines))
	c.Start()
	return runMix(o, wcfg, 13, &tpccTxns, func(node, tid int) exec {
		return calvinExec(sys.NewWorker(engines[node], tid))
	})
}

// runSiloBaseline runs on one machine whatever o.Nodes says, with no remote
// warehouse to draw: machine 0 of a bare cluster, whose store holds none of
// Silo's rows.
func runSiloBaseline(o Options) Result {
	wcfg := tpcc.Config{Nodes: 1, WarehousesPerNode: o.WarehousesPerNode}
	db := silo.NewDB([]memstore.TableID{
		tpcc.TableWarehouse, tpcc.TableDistrict, tpcc.TableCustomer, tpcc.TableHistory, tpcc.TableNewOrder,
		tpcc.TableOrder, tpcc.TableOrderLine, tpcc.TableItem, tpcc.TableStock, tpcc.TableCustLastOrder,
	})
	siloLoad(db, wcfg, o.Seed)
	e := txn.NewEngine(cluster.New(cluster.Spec{Nodes: 1, MemBytes: 2 << 20}).Machines[0], nil)
	return runMix(o, wcfg, 29, &siloTxns, func(_, tid int) exec { return siloExec(db.NewWorker(e, tid)) })
}

func siloLoad(db *silo.DB, wcfg tpcc.Config, seed uint64) {
	rng := sim.NewRand(seed + 3)
	for i := 1; i <= tpcc.ItemCount; i++ {
		_ = db.Insert(tpcc.TableItem, tpcc.IKey(i), tpcc.ItemRow(uint64(100+rng.Intn(9900))))
	}
	for _, w := range wcfg.WarehousesOf(0) {
		_ = db.Insert(tpcc.TableWarehouse, tpcc.WKey(w), tpcc.WarehouseRow(10, 0))
		for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
			_ = db.Insert(tpcc.TableDistrict, tpcc.DKey(w, d), tpcc.DistrictRow(10, 0, tpcc.InitialNextOrder))
			for cu := 1; cu <= tpcc.CustomersPerDistrict; cu++ {
				_ = db.Insert(tpcc.TableCustomer, tpcc.CKey(w, d, cu), tpcc.CustomerRow(-10, 100))
				_ = db.Insert(tpcc.TableCustLastOrder, tpcc.CKey(w, d, cu), make([]byte, 8))
			}
		}
		for i := 1; i <= tpcc.StockPerWarehouse; i++ {
			_ = db.Insert(tpcc.TableStock, tpcc.SKey(w, i), tpcc.StockRow(uint64(10+rng.Intn(91))))
		}
	}
}

// runMix is the one mix loop of the comparison systems: every worker (made
// by worker; wcfg.Nodes × o.ThreadsPerNode of them) draws the standard mix
// from its own generator and runs each draw through its row of txns.
// seedSalt offsets the generator seeds, so no two systems replay one stream.
// Under Options.Deterministic every worker steps the schedule gate, as
// DrTM+R's do.
func runMix(o Options, wcfg tpcc.Config, seedSalt uint64, txns *tpccTable, worker func(node, tid int) exec) Result {
	gate := newStepGate(o, wcfg.Nodes*o.ThreadsPerNode)
	return runWorkers(o, wcfg.Nodes, func(node, tid int) worked {
		ex := worker(node, tid)
		if gate != nil {
			gid := node*o.ThreadsPerNode + tid
			ex.w.SetGate(gate.stepFn(gid))
			defer gate.finish(gid)
		}
		whs := wcfg.WarehousesOf(node)
		in := draw{home: whs[tid%len(whs)]}
		in.g = tpcc.NewGen(wcfg, in.home, o.Seed+uint64(node*100+tid)+seedSalt)
		var newOrders uint64
		for in.i = 0; in.i < o.TxPerWorker; in.i++ {
			ty := in.g.NextType()
			if txns[ty](ex, in) == nil && ty == tpcc.TxNewOrder {
				newOrders++
			}
		}
		return worked{stats: &ex.w.Stats, newOrders: newOrders, clock: ex.w.Clk.Now()}
	})
}

// draw is what the mix loop hands a row: the worker's generator and home
// warehouse, and the loop index — order-status and stock-level pick district
// and customer from it, so which keys a system touches does not depend on
// its cost model.
type draw struct {
	g    *tpcc.Gen
	home int
	i    int
}

// tpccTable holds, per transaction type of the mix, the row that runs it.
type tpccTable [len(tpcc.Mix)]func(exec, draw) error

// tpccTxns is TPC-C for the systems that need the read/write set up front:
// a row builds the set (the dependent transactions by reconnaissance reads:
// Calvin's OLLP, DrTM's chopping) and runs its body and index mutations on
// the exec it is handed, whichever that is.
var tpccTxns = tpccTable{
	tpcc.TxNewOrder:    newOrder,
	tpcc.TxPayment:     payment,
	tpcc.TxOrderStatus: orderStatus,
	tpcc.TxDelivery:    delivery,
	tpcc.TxStockLevel:  stockLevel,
}

// siloTxns is Silo's table: payment as everyone's, new-order with the
// warehouse read and, Silo's tables having no ordered index to scan, one
// customer read for each of the three read-mostly transactions (45/43/12).
var siloTxns = tpccTable{
	tpcc.TxNewOrder:    siloNewOrder,
	tpcc.TxPayment:     payment,
	tpcc.TxOrderStatus: siloCustomerRead,
	tpcc.TxDelivery:    siloCustomerRead,
	tpcc.TxStockLevel:  siloCustomerRead,
}

// update reads a declared record, changes a copy of it and writes that back.
func update(c baseline.Ctx, table memstore.TableID, key uint64, change func(row []byte)) error {
	row, err := c.Get(table, key)
	if err != nil {
		return err
	}
	row = append([]byte(nil), row...)
	change(row)
	return c.Put(table, key, row)
}

// reads is a read-only body: it reads one of the declared records.
func reads(table memstore.TableID, key uint64) func(baseline.Ctx) error {
	return func(c baseline.Ctx) error {
		_, err := c.Get(table, key)
		return err
	}
}

func newOrder(ex exec, in draw) error { return ex.run(newOrderPlan(in.g.GenNewOrder())) }

func newOrderPlan(p tpcc.NewOrderParams) (refs []baseline.Ref, body func(baseline.Ctx) error, muts func() []mutation) {
	dkey, ckey := tpcc.DKey(p.W, p.D), tpcc.CKey(p.W, p.D, p.C)
	refs = []baseline.Ref{
		{Table: tpcc.TableWarehouse, Key: tpcc.WKey(p.W)},
		{Table: tpcc.TableDistrict, Key: dkey, Write: true},
		{Table: tpcc.TableCustomer, Key: ckey},
		{Table: tpcc.TableCustLastOrder, Key: ckey, Write: true},
	}
	for _, it := range p.Items {
		refs = append(refs,
			baseline.Ref{Table: tpcc.TableItem, Key: tpcc.IKey(it.Item)},
			baseline.Ref{Table: tpcc.TableStock, Key: tpcc.SKey(it.SupplyW, it.Item), Write: true})
	}
	var oid uint64
	amounts := make([]uint64, len(p.Items))
	body = func(c baseline.Ctx) error {
		if err := update(c, tpcc.TableDistrict, dkey, func(row []byte) {
			oid = tpcc.DistrictNextOID(row)
			tpcc.SetDistrictNextOID(row, oid+1)
		}); err != nil {
			return err
		}
		if _, err := c.Get(tpcc.TableCustomer, ckey); err != nil {
			return err
		}
		for i, it := range p.Items {
			irow, err := c.Get(tpcc.TableItem, tpcc.IKey(it.Item))
			if err != nil {
				return err
			}
			if err := update(c, tpcc.TableStock, tpcc.SKey(it.SupplyW, it.Item), func(row []byte) {
				tpcc.ApplyStockOrder(row, uint64(it.Qty), it.SupplyW != p.W)
			}); err != nil {
				return err
			}
			amounts[i] = tpcc.ItemPrice(irow) * uint64(it.Qty)
		}
		return c.Put(tpcc.TableCustLastOrder, ckey, binary.LittleEndian.AppendUint64(nil, oid))
	}
	muts = func() []mutation {
		okey := tpcc.OKey(p.W, p.D, int(oid))
		out := []mutation{
			{tpcc.TableOrder, okey, tpcc.OrderRow(uint64(p.C), 1, 0, uint64(len(p.Items)))},
			{tpcc.TableNewOrder, okey, binary.LittleEndian.AppendUint64(nil, oid)},
		}
		for l, it := range p.Items {
			out = append(out, mutation{tpcc.TableOrderLine, tpcc.OLKey(p.W, p.D, int(oid), l+1),
				tpcc.OrderLineRow(uint64(it.Item), uint64(it.SupplyW), uint64(it.Qty), amounts[l])})
		}
		return out
	}
	return refs, body, muts
}

// siloNewOrder also reads the warehouse row (w_tax), which the a-priori
// systems declare but never read: adding it to their body would put the
// row Payment writes into every DrTM new-order's HTM read set.
func siloNewOrder(ex exec, in draw) error {
	p := in.g.GenNewOrder()
	refs, body, muts := newOrderPlan(p)
	return ex.run(refs, func(c baseline.Ctx) error {
		if _, err := c.Get(tpcc.TableWarehouse, tpcc.WKey(p.W)); err != nil {
			return err
		}
		return body(c)
	}, muts)
}

func siloCustomerRead(ex exec, in draw) error {
	ckey := tpcc.CKey(in.home, 1+in.i%tpcc.DistrictsPerWarehouse, 1+in.i%tpcc.CustomersPerDistrict)
	return ex.run(nil, reads(tpcc.TableCustomer, ckey), nil)
}

func payment(ex exec, in draw) error {
	p := in.g.GenPayment()
	wkey, dkey, ckey := tpcc.WKey(p.W), tpcc.DKey(p.W, p.D), tpcc.CKey(p.CW, p.CD, p.C)
	refs := []baseline.Ref{
		{Table: tpcc.TableWarehouse, Key: wkey, Write: true},
		{Table: tpcc.TableDistrict, Key: dkey, Write: true},
		{Table: tpcc.TableCustomer, Key: ckey, Write: true},
	}
	return ex.run(refs, func(c baseline.Ctx) error {
		if err := update(c, tpcc.TableWarehouse, wkey, func(row []byte) {
			tpcc.SetWarehouseYTD(row, tpcc.WarehouseYTD(row)+p.Amount)
		}); err != nil {
			return err
		}
		if err := update(c, tpcc.TableDistrict, dkey, func(row []byte) {
			tpcc.SetDistrictYTD(row, tpcc.DistrictYTD(row)+p.Amount)
		}); err != nil {
			return err
		}
		return update(c, tpcc.TableCustomer, ckey, func(row []byte) { tpcc.CustomerAddPayment(row, p.Amount) })
	}, nil)
}

func orderStatus(ex exec, in draw) error {
	d, cu := 1+in.i%tpcc.DistrictsPerWarehouse, 1+in.i%tpcc.CustomersPerDistrict
	ckey := tpcc.CKey(in.home, d, cu)
	refs := []baseline.Ref{{Table: tpcc.TableCustomer, Key: ckey}}
	if oid, cnt, ok := lastOrder(ex.w.E.M.Store, in.home, d, cu); ok {
		refs = append(refs, baseline.Ref{Table: tpcc.TableOrder, Key: tpcc.OKey(in.home, d, int(oid))})
		for l := 1; l <= int(cnt); l++ {
			refs = append(refs, baseline.Ref{Table: tpcc.TableOrderLine, Key: tpcc.OLKey(in.home, d, int(oid), l)})
		}
	}
	return ex.run(refs, reads(tpcc.TableCustomer, ckey), nil)
}

// lastOrder reads the customer's last order id and line count directly.
func lastOrder(st *memstore.Store, w, d, cu int) (oid, cnt uint64, ok bool) {
	off, found := st.Table(tpcc.TableCustLastOrder).Lookup(tpcc.CKey(w, d, cu))
	if !found {
		return 0, 0, false
	}
	oid = binary.LittleEndian.Uint64(st.Table(tpcc.TableCustLastOrder).ReadValueNonTx(off))
	if oid == 0 {
		return 0, 0, false
	}
	ooff, found := st.Table(tpcc.TableOrder).Lookup(tpcc.OKey(w, d, int(oid)))
	if !found {
		return 0, 0, false
	}
	return oid, tpcc.OrderOLCnt(st.Table(tpcc.TableOrder).ReadValueNonTx(ooff)), true
}

// delivery is one transaction per district with an undelivered order; a
// district whose transaction fails is skipped, as the spec's deferred
// execution allows.
func delivery(ex exec, in draw) error {
	for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
		okey, cid, cnt, ok := oldestNewOrder(ex.w.E.M.Store, in.home, d)
		if !ok {
			continue
		}
		oid, ckey := int(okey&0xFFFFFF), tpcc.CKey(in.home, d, int(cid))
		refs := []baseline.Ref{
			{Table: tpcc.TableOrder, Key: okey, Write: true},
			{Table: tpcc.TableCustomer, Key: ckey, Write: true},
		}
		for l := 1; l <= int(cnt); l++ {
			refs = append(refs, baseline.Ref{Table: tpcc.TableOrderLine, Key: tpcc.OLKey(in.home, d, oid, l), Write: true})
		}
		_ = ex.run(refs, func(c baseline.Ctx) error {
			if err := update(c, tpcc.TableOrder, okey, func(row []byte) { tpcc.SetOrderCarrier(row, 5) }); err != nil {
				return err
			}
			var total uint64
			for l := 1; l <= int(cnt); l++ {
				if err := update(c, tpcc.TableOrderLine, tpcc.OLKey(in.home, d, oid, l), func(row []byte) {
					total += tpcc.OrderLineAmount(row)
					tpcc.SetOrderLineDelivery(row, 1)
				}); err != nil {
					return err
				}
			}
			return update(c, tpcc.TableCustomer, ckey, func(row []byte) { tpcc.CustomerAddDelivery(row, total) })
		}, func() []mutation { return []mutation{{table: tpcc.TableNewOrder, key: okey}} })
	}
	return nil
}

// oldestNewOrder probes the district's oldest undelivered order.
func oldestNewOrder(st *memstore.Store, w, d int) (key uint64, cid, cnt uint64, ok bool) {
	key, _, found := st.Table(tpcc.TableNewOrder).Ordered().MinGE(tpcc.OKey(w, d, 0))
	if !found || key > tpcc.OKey(w, d, 1<<24-1) {
		return 0, 0, 0, false
	}
	ooff, found := st.Table(tpcc.TableOrder).Lookup(key)
	if !found {
		return 0, 0, 0, false
	}
	row := st.Table(tpcc.TableOrder).ReadValueNonTx(ooff)
	return key, tpcc.OrderCustomer(row), tpcc.OrderOLCnt(row), true
}

// stockLevel declares the district and the lines of its last 20 orders,
// capped at 100 records in all.
func stockLevel(ex exec, in draw) error {
	d := 1 + in.i%tpcc.DistrictsPerWarehouse
	dkey := tpcc.DKey(in.home, d)
	off, ok := ex.w.E.M.Store.Table(tpcc.TableDistrict).Lookup(dkey)
	if !ok {
		return nil
	}
	next := int(tpcc.DistrictNextOID(ex.w.E.M.Store.Table(tpcc.TableDistrict).ReadValueNonTx(off)))
	refs := []baseline.Ref{{Table: tpcc.TableDistrict, Key: dkey}}
	ex.w.E.M.Store.Table(tpcc.TableOrderLine).Ordered().Scan(
		tpcc.OLKey(in.home, d, max(next-20, 1), 0), tpcc.OLKey(in.home, d, next, 15),
		func(key, _ uint64) bool {
			refs = append(refs, baseline.Ref{Table: tpcc.TableOrderLine, Key: key})
			return len(refs) < 100
		})
	return ex.run(refs, reads(tpcc.TableDistrict, dkey), nil)
}
