package harness

import (
	"errors"
	"sync"
	"time"

	"drtmr/internal/baseline/calvin"
	"drtmr/internal/baseline/drtm"
	"drtmr/internal/baseline/silo"
	"drtmr/internal/bench/tpcc"
	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// The comparison baselines run TPC-C only, matching the figures they appear
// in (Figs 10, 11, 17, 18 and the Silo paragraph of §7.2).

func simRand(seed uint64) *sim.Rand { return sim.NewRand(seed) }

// directMutate applies an insert/delete straight to the owning machine's
// store, charging the worker clock the way the baseline's messaging would
// (DrTM ships index mutations to the host like DrTM+R; Calvin folds them
// into its deterministic plan — either way one message per remote mutation).
func directMutate(c *cluster.Cluster, clk *sim.Clock, self rdma.NodeID, node rdma.NodeID,
	cost txn.CostModel, fn func(st *memstore.Store) error) error {
	clk.Advance(cost.LocalAccess)
	if node != self {
		clk.Advance(5 * time.Microsecond)
	}
	return fn(c.Machines[node].Store)
}

// tpccRecon provides the reconnaissance reads that a-priori-set systems need
// for TPC-C's dependent transactions (Calvin's OLLP, DrTM's chopping).
type tpccRecon struct {
	c    *cluster.Cluster
	wcfg tpcc.Config
}

// lastOrder reads the customer's last order id and line count directly.
func (r tpccRecon) lastOrder(node rdma.NodeID, w, d, cu int) (oid, cnt uint64, ok bool) {
	st := r.c.Machines[node].Store
	off, found := st.Table(tpcc.TableCustLastOrder).Lookup(tpcc.CKey(w, d, cu))
	if !found {
		return 0, 0, false
	}
	row := st.Table(tpcc.TableCustLastOrder).ReadValueNonTx(off)
	oid = leU64(row)
	if oid == 0 {
		return 0, 0, false
	}
	ooff, found := st.Table(tpcc.TableOrder).Lookup(tpcc.OKey(w, d, int(oid)))
	if !found {
		return 0, 0, false
	}
	return oid, tpcc.OrderOLCnt(st.Table(tpcc.TableOrder).ReadValueNonTx(ooff)), true
}

// oldestNewOrder probes the district's oldest undelivered order.
func (r tpccRecon) oldestNewOrder(node rdma.NodeID, w, d int) (key uint64, cid, cnt uint64, ok bool) {
	st := r.c.Machines[node].Store
	lo, hi := tpcc.OKey(w, d, 0), tpcc.OKey(w, d, 1<<24-1)
	key, _, found := st.Table(tpcc.TableNewOrder).Ordered().MinGE(lo)
	if !found || key > hi {
		return 0, 0, 0, false
	}
	ooff, found := st.Table(tpcc.TableOrder).Lookup(key)
	if !found {
		return 0, 0, 0, false
	}
	row := st.Table(tpcc.TableOrder).ReadValueNonTx(ooff)
	return key, tpcc.OrderCustomer(row), tpcc.OrderOLCnt(row), true
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// ---------------------------------------------------------------- DrTM ----

func runDrTMBaseline(o Options) Result {
	if o.Workload != WLTPCC {
		panic("harness: DrTM baseline implements TPC-C only")
	}
	c, wcfgAny := buildCluster(o, 1)
	defer c.Stop()
	wcfg := wcfgAny.(tpcc.Config)
	var engines []*drtm.Engine
	for _, m := range c.Machines {
		engines = append(engines, drtm.NewEngine(m, wcfg.Partitioner(m.ID), txn.DefaultCosts()))
	}
	c.Start()
	recon := tpccRecon{c: c, wcfg: wcfg}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		agg       txn.Stats // Committed, Fallbacks, Retries (= aborts)
		newOrders uint64
		clocks    workerClocks
	)
	for n := 0; n < o.Nodes; n++ {
		for t := 0; t < o.ThreadsPerNode; t++ {
			wg.Add(1)
			go func(node, tid int) {
				defer wg.Done()
				w := engines[node].NewWorker(tid)
				whs := wcfg.WarehousesOf(node)
				home := whs[tid%len(whs)]
				g := tpcc.NewGen(wcfg, home, o.Seed+uint64(node*100+tid)+7)
				ex := drtmExec{w: w, c: c, node: rdma.NodeID(node), wcfg: wcfg, recon: recon}
				var localNO uint64
				for i := 0; i < o.TxPerWorker; i++ {
					switch g.NextType() {
					case tpcc.TxNewOrder:
						if ex.newOrder(g.GenNewOrder()) == nil {
							localNO++
						}
					case tpcc.TxPayment:
						_ = ex.payment(g, g.GenPayment())
					case tpcc.TxOrderStatus:
						_ = ex.orderStatus(g, home)
					case tpcc.TxDelivery:
						_ = ex.delivery(home)
					case tpcc.TxStockLevel:
						_ = ex.stockLevel(g, home)
					}
				}
				mu.Lock()
				agg.Committed += w.Stats.Committed
				agg.Retries += w.Stats.Aborts
				agg.Fallbacks += w.Stats.Fallbacks
				newOrders += localNO
				clocks.add(w.Clk.Now())
				mu.Unlock()
			}(n, t)
		}
	}
	wg.Wait()
	return summarize(o, &agg, newOrders, clocks)
}

type drtmExec struct {
	w     *drtm.Worker
	c     *cluster.Cluster
	node  rdma.NodeID
	wcfg  tpcc.Config
	recon tpccRecon
}

func (e *drtmExec) newOrder(p tpcc.NewOrderParams) error {
	refs := []drtm.Ref{
		{Table: tpcc.TableWarehouse, Key: tpcc.WKey(p.W)},
		{Table: tpcc.TableDistrict, Key: tpcc.DKey(p.W, p.D), Write: true},
		{Table: tpcc.TableCustomer, Key: tpcc.CKey(p.W, p.D, p.C)},
		{Table: tpcc.TableCustLastOrder, Key: tpcc.CKey(p.W, p.D, p.C), Write: true},
	}
	for _, it := range p.Items {
		refs = append(refs,
			drtm.Ref{Table: tpcc.TableItem, Key: tpcc.IKey(it.Item)},
			drtm.Ref{Table: tpcc.TableStock, Key: tpcc.SKey(it.SupplyW, it.Item), Write: true})
	}
	var oid uint64
	amounts := make([]uint64, len(p.Items))
	err := e.w.Run(refs, func(c *drtm.Ctx) error {
		drow, err := c.Get(tpcc.TableDistrict, tpcc.DKey(p.W, p.D))
		if err != nil {
			return err
		}
		oid = tpcc.DistrictNextOID(drow)
		d2 := append([]byte(nil), drow...)
		tpcc.SetDistrictNextOID(d2, oid+1)
		if err := c.Put(tpcc.TableDistrict, tpcc.DKey(p.W, p.D), d2); err != nil {
			return err
		}
		if _, err := c.Get(tpcc.TableCustomer, tpcc.CKey(p.W, p.D, p.C)); err != nil {
			return err
		}
		for i, it := range p.Items {
			irow, err := c.Get(tpcc.TableItem, tpcc.IKey(it.Item))
			if err != nil {
				return err
			}
			srow, err := c.Get(tpcc.TableStock, tpcc.SKey(it.SupplyW, it.Item))
			if err != nil {
				return err
			}
			s2 := append([]byte(nil), srow...)
			tpcc.ApplyStockOrder(s2, uint64(it.Qty), it.SupplyW != p.W)
			if err := c.Put(tpcc.TableStock, tpcc.SKey(it.SupplyW, it.Item), s2); err != nil {
				return err
			}
			amounts[i] = tpcc.ItemPrice(irow) * uint64(it.Qty)
		}
		lo := make([]byte, 8)
		putLE(lo, oid)
		return c.Put(tpcc.TableCustLastOrder, tpcc.CKey(p.W, p.D, p.C), lo)
	})
	if err != nil {
		return err
	}
	// Index inserts, shipped to the (local) host like DrTM does.
	okey := tpcc.OKey(p.W, p.D, int(oid))
	_ = directMutate(e.c, &e.w.Clk, e.node, e.node, txn.DefaultCosts(), func(st *memstore.Store) error {
		_, err := st.Table(tpcc.TableOrder).Insert(okey, tpcc.OrderRow(uint64(p.C), 1, 0, uint64(len(p.Items))))
		if err != nil {
			return err
		}
		no := make([]byte, 8)
		putLE(no, oid)
		if _, err := st.Table(tpcc.TableNewOrder).Insert(okey, no); err != nil {
			return err
		}
		for l, it := range p.Items {
			row := tpcc.OrderLineRow(uint64(it.Item), uint64(it.SupplyW), uint64(it.Qty), amounts[l])
			if _, err := st.Table(tpcc.TableOrderLine).Insert(tpcc.OLKey(p.W, p.D, int(oid), l+1), row); err != nil {
				return err
			}
		}
		return nil
	})
	return nil
}

func putLE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func (e *drtmExec) payment(g *tpcc.Gen, p tpcc.PaymentParams) error {
	refs := []drtm.Ref{
		{Table: tpcc.TableWarehouse, Key: tpcc.WKey(p.W), Write: true},
		{Table: tpcc.TableDistrict, Key: tpcc.DKey(p.W, p.D), Write: true},
		{Table: tpcc.TableCustomer, Key: tpcc.CKey(p.CW, p.CD, p.C), Write: true},
	}
	return e.w.Run(refs, func(c *drtm.Ctx) error {
		wrow, err := c.Get(tpcc.TableWarehouse, tpcc.WKey(p.W))
		if err != nil {
			return err
		}
		w2 := append([]byte(nil), wrow...)
		tpcc.SetWarehouseYTD(w2, tpcc.WarehouseYTD(w2)+p.Amount)
		if err := c.Put(tpcc.TableWarehouse, tpcc.WKey(p.W), w2); err != nil {
			return err
		}
		drow, err := c.Get(tpcc.TableDistrict, tpcc.DKey(p.W, p.D))
		if err != nil {
			return err
		}
		d2 := append([]byte(nil), drow...)
		tpcc.SetDistrictYTD(d2, tpcc.DistrictYTD(d2)+p.Amount)
		if err := c.Put(tpcc.TableDistrict, tpcc.DKey(p.W, p.D), d2); err != nil {
			return err
		}
		crow, err := c.Get(tpcc.TableCustomer, tpcc.CKey(p.CW, p.CD, p.C))
		if err != nil {
			return err
		}
		c2 := append([]byte(nil), crow...)
		tpcc.CustomerAddPayment(c2, p.Amount)
		return c.Put(tpcc.TableCustomer, tpcc.CKey(p.CW, p.CD, p.C), c2)
	})
}

func (e *drtmExec) orderStatus(g *tpcc.Gen, home int) error {
	d, cu := 1+int(e.w.Clk.Now()%10), 1+int(e.w.Clk.Now()%tpcc.CustomersPerDistrict)
	oid, cnt, ok := e.recon.lastOrder(e.node, home, d, cu)
	refs := []drtm.Ref{{Table: tpcc.TableCustomer, Key: tpcc.CKey(home, d, cu)}}
	if ok {
		refs = append(refs, drtm.Ref{Table: tpcc.TableOrder, Key: tpcc.OKey(home, d, int(oid))})
		for l := 1; l <= int(cnt); l++ {
			refs = append(refs, drtm.Ref{Table: tpcc.TableOrderLine, Key: tpcc.OLKey(home, d, int(oid), l)})
		}
	}
	return e.w.Run(refs, func(c *drtm.Ctx) error {
		_, err := c.Get(tpcc.TableCustomer, tpcc.CKey(home, d, cu))
		return err
	})
}

func (e *drtmExec) delivery(home int) error {
	for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
		key, cid, cnt, ok := e.recon.oldestNewOrder(e.node, home, d)
		if !ok {
			continue
		}
		refs := []drtm.Ref{
			{Table: tpcc.TableOrder, Key: key, Write: true},
			{Table: tpcc.TableCustomer, Key: tpcc.CKey(home, d, int(cid)), Write: true},
		}
		oid := int(key & 0xFFFFFF)
		for l := 1; l <= int(cnt); l++ {
			refs = append(refs, drtm.Ref{Table: tpcc.TableOrderLine, Key: tpcc.OLKey(home, d, oid, l), Write: true})
		}
		err := e.w.Run(refs, func(c *drtm.Ctx) error {
			orow, err := c.Get(tpcc.TableOrder, key)
			if err != nil {
				return err
			}
			o2 := append([]byte(nil), orow...)
			tpcc.SetOrderCarrier(o2, 5)
			if err := c.Put(tpcc.TableOrder, key, o2); err != nil {
				return err
			}
			var total uint64
			for l := 1; l <= int(cnt); l++ {
				ol, err := c.Get(tpcc.TableOrderLine, tpcc.OLKey(home, d, oid, l))
				if err != nil {
					return err
				}
				total += tpcc.OrderLineAmount(ol)
				ol2 := append([]byte(nil), ol...)
				tpcc.SetOrderLineDelivery(ol2, 1)
				if err := c.Put(tpcc.TableOrderLine, tpcc.OLKey(home, d, oid, l), ol2); err != nil {
					return err
				}
			}
			crow, err := c.Get(tpcc.TableCustomer, tpcc.CKey(home, d, int(cid)))
			if err != nil {
				return err
			}
			c2 := append([]byte(nil), crow...)
			tpcc.CustomerAddDelivery(c2, total)
			return c.Put(tpcc.TableCustomer, tpcc.CKey(home, d, int(cid)), c2)
		})
		if err != nil {
			continue
		}
		_ = directMutate(e.c, &e.w.Clk, e.node, e.node, txn.DefaultCosts(), func(st *memstore.Store) error {
			return st.Table(tpcc.TableNewOrder).Delete(key)
		})
	}
	return nil
}

func (e *drtmExec) stockLevel(g *tpcc.Gen, home int) error {
	d := 1 + int(e.w.Clk.Now()%10)
	st := e.c.Machines[e.node].Store
	off, ok := st.Table(tpcc.TableDistrict).Lookup(tpcc.DKey(home, d))
	if !ok {
		return nil
	}
	next := int(tpcc.DistrictNextOID(st.Table(tpcc.TableDistrict).ReadValueNonTx(off)))
	loO := next - 20
	if loO < 1 {
		loO = 1
	}
	var refs []drtm.Ref
	st.Table(tpcc.TableOrderLine).Ordered().Scan(
		tpcc.OLKey(home, d, loO, 0), tpcc.OLKey(home, d, next, 15),
		func(key, _ uint64) bool {
			refs = append(refs, drtm.Ref{Table: tpcc.TableOrderLine, Key: key})
			return len(refs) < 100
		})
	refs = append(refs, drtm.Ref{Table: tpcc.TableDistrict, Key: tpcc.DKey(home, d)})
	return e.w.Run(refs, func(c *drtm.Ctx) error {
		_, err := c.Get(tpcc.TableDistrict, tpcc.DKey(home, d))
		return err
	})
}

// -------------------------------------------------------------- Calvin ----

func runCalvinBaseline(o Options) Result {
	if o.Workload != WLTPCC {
		panic("harness: Calvin baseline implements TPC-C only")
	}
	c, wcfgAny := buildCluster(o, 1)
	defer c.Stop()
	wcfg := wcfgAny.(tpcc.Config)
	// Calvin's partitioner cannot be machine-relative (one global plan),
	// so ITEM is assigned to shard 0 and every access to it is routed
	// there — the penalty a shared-nothing deterministic system pays
	// without replicated read-only tables... except real Calvin also
	// replicates items; route items to the caller-agnostic owner of
	// warehouse 1 but charge no message (modelled as local).
	part := wcfg.Partitioner(0)
	sys := calvin.New(c, part, txn.DefaultCosts())
	c.Start()
	recon := tpccRecon{c: c, wcfg: wcfg}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		agg       txn.Stats // Committed only: Calvin never aborts
		newOrders uint64
		clocks    workerClocks
	)
	for n := 0; n < o.Nodes; n++ {
		for t := 0; t < o.ThreadsPerNode; t++ {
			wg.Add(1)
			go func(node, tid int) {
				defer wg.Done()
				w := sys.NewWorker(rdma.NodeID(node), tid)
				whs := wcfg.WarehousesOf(node)
				home := whs[tid%len(whs)]
				g := tpcc.NewGen(wcfg, home, o.Seed+uint64(node*100+tid)+13)
				ex := calvinExec{w: w, c: c, node: rdma.NodeID(node), recon: recon}
				var localNO uint64
				for i := 0; i < o.TxPerWorker; i++ {
					switch g.NextType() {
					case tpcc.TxNewOrder:
						if ex.newOrder(g.GenNewOrder()) == nil {
							localNO++
						}
					case tpcc.TxPayment:
						_ = ex.payment(g.GenPayment())
					case tpcc.TxOrderStatus:
						_ = ex.orderStatus(home, 1+i%10, 1+i%tpcc.CustomersPerDistrict)
					case tpcc.TxDelivery:
						_ = ex.delivery(home)
					case tpcc.TxStockLevel:
						_ = ex.stockLevel(home, 1+i%10)
					}
				}
				mu.Lock()
				agg.Committed += w.Stats.Committed
				newOrders += localNO
				clocks.add(w.Clk.Now())
				mu.Unlock()
			}(n, t)
		}
	}
	wg.Wait()
	return summarize(o, &agg, newOrders, clocks)
}

type calvinExec struct {
	w     *calvin.Worker
	c     *cluster.Cluster
	node  rdma.NodeID
	recon tpccRecon
}

func (e *calvinExec) newOrder(p tpcc.NewOrderParams) error {
	refs := []calvin.Ref{
		{Table: tpcc.TableWarehouse, Key: tpcc.WKey(p.W)},
		{Table: tpcc.TableDistrict, Key: tpcc.DKey(p.W, p.D), Write: true},
		{Table: tpcc.TableCustomer, Key: tpcc.CKey(p.W, p.D, p.C)},
		{Table: tpcc.TableCustLastOrder, Key: tpcc.CKey(p.W, p.D, p.C), Write: true},
	}
	for _, it := range p.Items {
		refs = append(refs,
			calvin.Ref{Table: tpcc.TableItem, Key: tpcc.IKey(it.Item)},
			calvin.Ref{Table: tpcc.TableStock, Key: tpcc.SKey(it.SupplyW, it.Item), Write: true})
	}
	var oid uint64
	err := e.w.Run(refs, func(c *calvin.Ctx) error {
		drow, err := c.Get(tpcc.TableDistrict, tpcc.DKey(p.W, p.D))
		if err != nil {
			return err
		}
		oid = tpcc.DistrictNextOID(drow)
		d2 := append([]byte(nil), drow...)
		tpcc.SetDistrictNextOID(d2, oid+1)
		if err := c.Put(tpcc.TableDistrict, tpcc.DKey(p.W, p.D), d2); err != nil {
			return err
		}
		for _, it := range p.Items {
			srow, err := c.Get(tpcc.TableStock, tpcc.SKey(it.SupplyW, it.Item))
			if err != nil {
				return err
			}
			s2 := append([]byte(nil), srow...)
			tpcc.ApplyStockOrder(s2, uint64(it.Qty), it.SupplyW != p.W)
			if err := c.Put(tpcc.TableStock, tpcc.SKey(it.SupplyW, it.Item), s2); err != nil {
				return err
			}
		}
		lo := make([]byte, 8)
		putLE(lo, oid)
		return c.Put(tpcc.TableCustLastOrder, tpcc.CKey(p.W, p.D, p.C), lo)
	})
	if err != nil {
		return err
	}
	okey := tpcc.OKey(p.W, p.D, int(oid))
	_ = e.w.Insert(tpcc.TableOrder, okey, tpcc.OrderRow(uint64(p.C), 1, 0, uint64(len(p.Items))))
	no := make([]byte, 8)
	putLE(no, oid)
	_ = e.w.Insert(tpcc.TableNewOrder, okey, no)
	for l, it := range p.Items {
		_ = e.w.Insert(tpcc.TableOrderLine, tpcc.OLKey(p.W, p.D, int(oid), l+1),
			tpcc.OrderLineRow(uint64(it.Item), uint64(it.SupplyW), uint64(it.Qty), uint64(it.Qty)*100))
	}
	return nil
}

func (e *calvinExec) payment(p tpcc.PaymentParams) error {
	refs := []calvin.Ref{
		{Table: tpcc.TableWarehouse, Key: tpcc.WKey(p.W), Write: true},
		{Table: tpcc.TableDistrict, Key: tpcc.DKey(p.W, p.D), Write: true},
		{Table: tpcc.TableCustomer, Key: tpcc.CKey(p.CW, p.CD, p.C), Write: true},
	}
	return e.w.Run(refs, func(c *calvin.Ctx) error {
		wrow, _ := c.Get(tpcc.TableWarehouse, tpcc.WKey(p.W))
		w2 := append([]byte(nil), wrow...)
		tpcc.SetWarehouseYTD(w2, tpcc.WarehouseYTD(w2)+p.Amount)
		if err := c.Put(tpcc.TableWarehouse, tpcc.WKey(p.W), w2); err != nil {
			return err
		}
		drow, _ := c.Get(tpcc.TableDistrict, tpcc.DKey(p.W, p.D))
		d2 := append([]byte(nil), drow...)
		tpcc.SetDistrictYTD(d2, tpcc.DistrictYTD(d2)+p.Amount)
		if err := c.Put(tpcc.TableDistrict, tpcc.DKey(p.W, p.D), d2); err != nil {
			return err
		}
		crow, _ := c.Get(tpcc.TableCustomer, tpcc.CKey(p.CW, p.CD, p.C))
		c2 := append([]byte(nil), crow...)
		tpcc.CustomerAddPayment(c2, p.Amount)
		return c.Put(tpcc.TableCustomer, tpcc.CKey(p.CW, p.CD, p.C), c2)
	})
}

func (e *calvinExec) orderStatus(home, d, cu int) error {
	oid, cnt, ok := e.recon.lastOrder(e.node, home, d, cu)
	refs := []calvin.Ref{{Table: tpcc.TableCustomer, Key: tpcc.CKey(home, d, cu)}}
	if ok {
		refs = append(refs, calvin.Ref{Table: tpcc.TableOrder, Key: tpcc.OKey(home, d, int(oid))})
		for l := 1; l <= int(cnt); l++ {
			refs = append(refs, calvin.Ref{Table: tpcc.TableOrderLine, Key: tpcc.OLKey(home, d, int(oid), l)})
		}
	}
	return e.w.Run(refs, func(c *calvin.Ctx) error { return nil })
}

func (e *calvinExec) delivery(home int) error {
	for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
		key, cid, cnt, ok := e.recon.oldestNewOrder(e.node, home, d)
		if !ok {
			continue
		}
		oid := int(key & 0xFFFFFF)
		refs := []calvin.Ref{
			{Table: tpcc.TableOrder, Key: key, Write: true},
			{Table: tpcc.TableCustomer, Key: tpcc.CKey(home, d, int(cid)), Write: true},
		}
		for l := 1; l <= int(cnt); l++ {
			refs = append(refs, calvin.Ref{Table: tpcc.TableOrderLine, Key: tpcc.OLKey(home, d, oid, l), Write: true})
		}
		err := e.w.Run(refs, func(c *calvin.Ctx) error {
			orow, err := c.Get(tpcc.TableOrder, key)
			if err != nil {
				return err
			}
			o2 := append([]byte(nil), orow...)
			tpcc.SetOrderCarrier(o2, 3)
			return c.Put(tpcc.TableOrder, key, o2)
		})
		if err == nil {
			_ = directMutate(e.c, &e.w.Clk, e.node, e.node, txn.DefaultCosts(), func(st *memstore.Store) error {
				return st.Table(tpcc.TableNewOrder).Delete(key)
			})
		}
	}
	return nil
}

func (e *calvinExec) stockLevel(home, d int) error {
	st := e.c.Machines[e.node].Store
	off, ok := st.Table(tpcc.TableDistrict).Lookup(tpcc.DKey(home, d))
	if !ok {
		return nil
	}
	next := int(tpcc.DistrictNextOID(st.Table(tpcc.TableDistrict).ReadValueNonTx(off)))
	loO := next - 20
	if loO < 1 {
		loO = 1
	}
	refs := []calvin.Ref{{Table: tpcc.TableDistrict, Key: tpcc.DKey(home, d)}}
	st.Table(tpcc.TableOrderLine).Ordered().Scan(
		tpcc.OLKey(home, d, loO, 0), tpcc.OLKey(home, d, next, 15),
		func(key, _ uint64) bool {
			refs = append(refs, calvin.Ref{Table: tpcc.TableOrderLine, Key: key})
			return len(refs) < 100
		})
	return e.w.Run(refs, func(c *calvin.Ctx) error { return nil })
}

// ---------------------------------------------------------------- Silo ----

func runSiloBaseline(o Options) Result {
	if o.Workload != WLTPCC {
		panic("harness: Silo baseline implements TPC-C only")
	}
	// Single machine: nodes=1 regardless of o.Nodes; warehouses = threads.
	wcfg := tpcc.Config{Nodes: 1, WarehousesPerNode: o.WarehousesPerNode,
		RemoteNewOrderProb: 0, RemotePaymentProb: 0}
	db := silo.NewDB([]uint8{
		uint8(tpcc.TableWarehouse), uint8(tpcc.TableDistrict), uint8(tpcc.TableCustomer),
		uint8(tpcc.TableHistory), uint8(tpcc.TableNewOrder), uint8(tpcc.TableOrder),
		uint8(tpcc.TableOrderLine), uint8(tpcc.TableItem), uint8(tpcc.TableStock),
		uint8(tpcc.TableCustLastOrder),
	}, txn.DefaultCosts())
	defer db.Close()
	siloLoad(db, wcfg, o.Seed)

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		agg       txn.Stats // Committed, Retries (= aborts)
		newOrders uint64
		clocks    workerClocks
	)
	for t := 0; t < o.ThreadsPerNode; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := db.NewWorker(tid)
			whs := wcfg.WarehousesOf(0)
			home := whs[tid%len(whs)]
			g := tpcc.NewGen(wcfg, home, o.Seed+uint64(tid)+29)
			var localNO uint64
			for i := 0; i < o.TxPerWorker; i++ {
				switch g.NextType() {
				case tpcc.TxNewOrder:
					if siloNewOrder(w, g.GenNewOrder()) == nil {
						localNO++
					}
				case tpcc.TxPayment:
					_ = siloPayment(w, g.GenPayment())
				default:
					// Order-status / delivery / stock-level reduce to
					// read-mostly single-warehouse transactions; model
					// them with a customer+district read txn so the mix
					// stays 45/43/12.
					_ = w.Run(func(tx *silo.Txn) error {
						_, err := tx.Read(uint8(tpcc.TableCustomer), tpcc.CKey(home, 1+i%10, 1+i%tpcc.CustomersPerDistrict))
						if errors.Is(err, silo.ErrNotFound) {
							return nil
						}
						return err
					})
				}
			}
			mu.Lock()
			agg.Committed += w.Stats.Committed
			agg.Retries += w.Stats.Aborts
			newOrders += localNO
			clocks.add(w.Clk.Now())
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return summarize(o, &agg, newOrders, clocks)
}

func siloLoad(db *silo.DB, wcfg tpcc.Config, seed uint64) {
	rng := sim.NewRand(seed + 3)
	for i := 1; i <= tpcc.ItemCount; i++ {
		_ = db.Insert(uint8(tpcc.TableItem), tpcc.IKey(i), tpcc.ItemRow(uint64(100+rng.Intn(9900))))
	}
	for _, w := range wcfg.WarehousesOf(0) {
		_ = db.Insert(uint8(tpcc.TableWarehouse), tpcc.WKey(w), tpcc.WarehouseRow(10, 0))
		for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
			_ = db.Insert(uint8(tpcc.TableDistrict), tpcc.DKey(w, d), tpcc.DistrictRow(10, 0, tpcc.InitialNextOrder))
			for cu := 1; cu <= tpcc.CustomersPerDistrict; cu++ {
				_ = db.Insert(uint8(tpcc.TableCustomer), tpcc.CKey(w, d, cu), tpcc.CustomerRow(-10, 100))
				_ = db.Insert(uint8(tpcc.TableCustLastOrder), tpcc.CKey(w, d, cu), make([]byte, 8))
			}
		}
		for i := 1; i <= tpcc.StockPerWarehouse; i++ {
			_ = db.Insert(uint8(tpcc.TableStock), tpcc.SKey(w, i), tpcc.StockRow(uint64(10+rng.Intn(91))))
		}
	}
}

func siloNewOrder(w *silo.Worker, p tpcc.NewOrderParams) error {
	return w.Run(func(tx *silo.Txn) error {
		if _, err := tx.Read(uint8(tpcc.TableWarehouse), tpcc.WKey(p.W)); err != nil {
			return err
		}
		drow, err := tx.Read(uint8(tpcc.TableDistrict), tpcc.DKey(p.W, p.D))
		if err != nil {
			return err
		}
		oid := tpcc.DistrictNextOID(drow)
		d2 := append([]byte(nil), drow...)
		tpcc.SetDistrictNextOID(d2, oid+1)
		if err := tx.Write(uint8(tpcc.TableDistrict), tpcc.DKey(p.W, p.D), d2); err != nil {
			return err
		}
		if _, err := tx.Read(uint8(tpcc.TableCustomer), tpcc.CKey(p.W, p.D, p.C)); err != nil {
			return err
		}
		for _, it := range p.Items {
			if _, err := tx.Read(uint8(tpcc.TableItem), tpcc.IKey(it.Item)); err != nil {
				return err
			}
			srow, err := tx.Read(uint8(tpcc.TableStock), tpcc.SKey(it.SupplyW, it.Item))
			if err != nil {
				return err
			}
			s2 := append([]byte(nil), srow...)
			tpcc.ApplyStockOrder(s2, uint64(it.Qty), false)
			if err := tx.Write(uint8(tpcc.TableStock), tpcc.SKey(it.SupplyW, it.Item), s2); err != nil {
				return err
			}
		}
		okey := tpcc.OKey(p.W, p.D, int(oid))
		_ = tx.Insert(uint8(tpcc.TableOrder), okey, tpcc.OrderRow(uint64(p.C), 1, 0, uint64(len(p.Items))))
		no := make([]byte, 8)
		putLE(no, oid)
		_ = tx.Insert(uint8(tpcc.TableNewOrder), okey, no)
		for l, it := range p.Items {
			_ = tx.Insert(uint8(tpcc.TableOrderLine), tpcc.OLKey(p.W, p.D, int(oid), l+1),
				tpcc.OrderLineRow(uint64(it.Item), uint64(it.SupplyW), uint64(it.Qty), uint64(it.Qty)*100))
		}
		lo := make([]byte, 8)
		putLE(lo, oid)
		return tx.Write(uint8(tpcc.TableCustLastOrder), tpcc.CKey(p.W, p.D, p.C), lo)
	})
}

func siloPayment(w *silo.Worker, p tpcc.PaymentParams) error {
	return w.Run(func(tx *silo.Txn) error {
		wrow, err := tx.Read(uint8(tpcc.TableWarehouse), tpcc.WKey(p.W))
		if err != nil {
			return err
		}
		w2 := append([]byte(nil), wrow...)
		tpcc.SetWarehouseYTD(w2, tpcc.WarehouseYTD(w2)+p.Amount)
		if err := tx.Write(uint8(tpcc.TableWarehouse), tpcc.WKey(p.W), w2); err != nil {
			return err
		}
		drow, err := tx.Read(uint8(tpcc.TableDistrict), tpcc.DKey(p.W, p.D))
		if err != nil {
			return err
		}
		d2 := append([]byte(nil), drow...)
		tpcc.SetDistrictYTD(d2, tpcc.DistrictYTD(d2)+p.Amount)
		if err := tx.Write(uint8(tpcc.TableDistrict), tpcc.DKey(p.W, p.D), d2); err != nil {
			return err
		}
		crow, err := tx.Read(uint8(tpcc.TableCustomer), tpcc.CKey(p.CW, p.CD, p.C))
		if err != nil {
			return err
		}
		c2 := append([]byte(nil), crow...)
		tpcc.CustomerAddPayment(c2, p.Amount)
		return tx.Write(uint8(tpcc.TableCustomer), tpcc.CKey(p.CW, p.CD, p.C), c2)
	})
}
