package tpcc

import (
	"errors"
	"fmt"
	"slices"

	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// TxType enumerates the five TPC-C transactions.
type TxType int

// Transaction types in standard-mix order.
const (
	TxNewOrder TxType = iota
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
	numTxTypes
)

func (t TxType) String() string {
	switch t {
	case TxNewOrder:
		return "new-order"
	case TxPayment:
		return "payment"
	case TxOrderStatus:
		return "order-status"
	case TxDelivery:
		return "delivery"
	case TxStockLevel:
		return "stock-level"
	default:
		return fmt.Sprintf("TxType(%d)", int(t))
	}
}

// Mix is the standard mix (percent): 45/43/4/4/4.
var Mix = [numTxTypes]int{45, 43, 4, 4, 4}

// TypeNames returns the transaction type names in TxType order, for indexing
// per-type latency histograms (obs.TypedHist).
func TypeNames() []string {
	names := make([]string, numTxTypes)
	for t := TxType(0); t < numTxTypes; t++ {
		names[t] = t.String()
	}
	return names
}

// Gen draws TPC-C transactions for one worker bound to a home warehouse.
type Gen struct {
	cfg  Config
	home int // home warehouse (1-based)
	node int
	rng  *sim.Rand
	hseq uint64
	// cNURandC is the per-generator NURand C constant.
	cNURandC int
}

// NewGen creates a generator for a worker whose home warehouse is home.
func NewGen(cfg Config, home int, seed uint64) *Gen {
	rng := sim.NewRand(seed)
	return &Gen{
		cfg:      cfg,
		home:     home,
		node:     cfg.NodeOfWarehouse(home),
		rng:      rng,
		cNURandC: rng.Intn(256),
	}
}

// NextType draws from the standard mix.
func (g *Gen) NextType() TxType {
	p := g.rng.Intn(100)
	acc := 0
	for t := 0; t < int(numTxTypes); t++ {
		acc += Mix[t]
		if p < acc {
			return TxType(t)
		}
	}
	return TxStockLevel
}

func (g *Gen) customer() int {
	return g.rng.NURand(1023, 1, CustomersPerDistrict, g.cNURandC) // NURand(1023,1,3000) scaled
}

func (g *Gen) item() int {
	return g.rng.NURand(8191, 1, ItemCount, g.cNURandC)
}

func (g *Gen) otherWarehouse() int {
	total := g.cfg.Warehouses()
	if total <= 1 {
		return g.home
	}
	w := 1 + g.rng.Intn(total-1)
	if w >= g.home {
		w++
	}
	return w
}

// NewOrderParams is one generated new-order. Its lines are Items[:N], kept
// in the params themselves: the worker's coroutines share one generator, so
// a buffer the generator kept would be redrawn under an order still running.
type NewOrderParams struct {
	W, D, C int
	Items   [maxOrderLines]NewOrderItem
	N       int
	// Distributed reports whether any supply warehouse is remote to W's
	// machine (the paper's distributed-transaction criterion).
	Distributed bool
}

// NewOrderItem is one order line request.
type NewOrderItem struct {
	Item    int
	SupplyW int
	Qty     int
}

const maxOrderLines = 15 // the most items a new-order has

// GenNewOrder draws a new-order (5-15 items; each supplies remotely with
// RemoteNewOrderProb — the knob Fig 17 sweeps).
func (g *Gen) GenNewOrder() NewOrderParams {
	p := NewOrderParams{
		W: g.home,
		D: 1 + g.rng.Intn(DistrictsPerWarehouse),
		C: g.customer(),
	}
	n := 5 + g.rng.Intn(maxOrderLines-4)
	for p.N < n {
		it := g.item()
		if slices.ContainsFunc(p.Items[:p.N], func(x NewOrderItem) bool { return x.Item == it }) {
			continue
		}
		supply := g.home
		if g.rng.Bool(g.cfg.RemoteNewOrderProb) {
			supply = g.otherWarehouse()
		}
		if g.cfg.NodeOfWarehouse(supply) != g.node {
			p.Distributed = true
		}
		p.Items[p.N] = NewOrderItem{Item: it, SupplyW: supply, Qty: 1 + g.rng.Intn(10)}
		p.N++
	}
	return p
}

// PaymentParams is one generated payment.
type PaymentParams struct {
	W, D   int
	CW, CD int // customer's warehouse/district (remote with RemotePaymentProb)
	C      int
	Amount uint64
	// Distributed reports whether CW is on another machine.
	Distributed bool
}

// GenPayment draws a payment.
func (g *Gen) GenPayment() PaymentParams {
	p := PaymentParams{
		W: g.home, D: 1 + g.rng.Intn(DistrictsPerWarehouse),
		Amount: uint64(1 + g.rng.Intn(5000)),
	}
	p.CW, p.CD = p.W, p.D
	if g.rng.Bool(g.cfg.RemotePaymentProb) {
		p.CW = g.otherWarehouse()
		p.CD = 1 + g.rng.Intn(DistrictsPerWarehouse)
	}
	p.C = g.customer()
	p.Distributed = g.cfg.NodeOfWarehouse(p.CW) != g.node
	return p
}

// nextHistory returns a unique history sequence for this generator.
func (g *Gen) nextHistory() uint64 {
	g.hseq++
	return uint64(g.node)<<32 | g.hseq
}

// Executor runs TPC-C transactions on one DrTM+R worker.
type Executor struct {
	W   *txn.Worker
	Gen *Gen
	cfg Config

	// Committed per type (new-order throughput is the paper's metric).
	Counts [numTxTypes]uint64
}

// NewExecutor pairs a worker with a generator.
func NewExecutor(w *txn.Worker, g *Gen) *Executor {
	return &Executor{W: w, Gen: g, cfg: g.cfg}
}

// RunOne executes one standard-mix transaction; returns its type.
func (e *Executor) RunOne() (TxType, error) {
	t := e.Gen.NextType()
	var err error
	switch t {
	case TxNewOrder:
		err = e.NewOrder(e.Gen.GenNewOrder())
	case TxPayment:
		err = e.Payment(e.Gen.GenPayment())
	case TxOrderStatus:
		err = e.OrderStatus()
	case TxDelivery:
		err = e.Delivery()
	case TxStockLevel:
		err = e.StockLevel()
	}
	if err == nil {
		e.Counts[t]++
	}
	return t, err
}

// NewOrder: read warehouse/district/customer/items, update district next-o,
// update stocks (possibly remote — the distributed case), insert order,
// new-order and order lines.
func (e *Executor) NewOrder(p NewOrderParams) error {
	return e.W.Run(func(tx *txn.Txn) error {
		// Only the load-time-immutable tax is used, so a stable (untracked)
		// read: a tracked read here false-shares the row with Payment's YTD
		// deltas and validate-aborts for nothing.
		wrow, err := tx.ReadStable(TableWarehouse, WKey(p.W))
		if err != nil {
			return err
		}
		_ = WarehouseTax(wrow)
		// Customer is consulted for immutable fields only (discount, last
		// name); a tracked read would false-share with Payment's balance
		// deltas on the same row.
		if _, err := tx.ReadStable(TableCustomer, CKey(p.W, p.D, p.C)); err != nil {
			return err
		}
		var total uint64
		var amounts [maxOrderLines]uint64
		for i, it := range p.Items[:p.N] {
			irow, err := tx.Read(TableItem, IKey(it.Item))
			if err != nil {
				return err
			}
			price := ItemPrice(irow)
			srow, err := tx.Read(TableStock, SKey(it.SupplyW, it.Item))
			if err != nil {
				return err
			}
			ApplyStockOrder(srow, uint64(it.Qty), it.SupplyW != p.W)
			if err := tx.Write(TableStock, SKey(it.SupplyW, it.Item), srow); err != nil {
				return err
			}
			amounts[i] = price * uint64(it.Qty)
			total += amounts[i]
		}
		// The district sequencer (next_o_id) is the one genuinely contended
		// read-modify-write in this transaction: every home NewOrder
		// serializes on it. It is read LAST, after the slow item/stock leg
		// with its doorbell round-trips, so the window in which a concurrent
		// NewOrder can invalidate the read is the commit protocol itself,
		// not the whole execution phase.
		drow, err := tx.Read(TableDistrict, DKey(p.W, p.D))
		if err != nil {
			return err
		}
		oid := DistrictNextOID(drow)
		SetDistrictNextOID(drow, oid+1)
		if err := tx.Write(TableDistrict, DKey(p.W, p.D), drow); err != nil {
			return err
		}
		okey := OKey(p.W, p.D, int(oid))
		if err := tx.Insert(TableOrder, okey, OrderRow(uint64(p.C), 1, 0, uint64(p.N))); err != nil {
			return err
		}
		no := make([]byte, newOrderSize)
		putU64(no, 0, oid)
		if err := tx.Insert(TableNewOrder, okey, no); err != nil {
			return err
		}
		for l, it := range p.Items[:p.N] {
			row := OrderLineRow(uint64(it.Item), uint64(it.SupplyW), uint64(it.Qty), amounts[l])
			if err := tx.Insert(TableOrderLine, OLKey(p.W, p.D, int(oid), l+1), row); err != nil {
				return err
			}
		}
		lo := make([]byte, lastOrderSize)
		putU64(lo, 0, oid)
		return tx.Write(TableCustLastOrder, CKey(p.W, p.D, p.C), lo)
	})
}

// Payment: update warehouse.ytd, district.ytd, customer balance (possibly
// remote), insert a history row. Every update is a pure accumulator bump on
// the workload's hottest records (warehouse and district rows are shared by
// every home transaction), so all three go through the commutative-delta
// path: the transaction carries no read set at all and cannot
// validate-abort — concurrent Payments commute instead of retrying. With
// ContentionOff the Adds degrade inside the engine to the read-modify-write
// shape this function had before (the pure-OCC ablation).
func (e *Executor) Payment(p PaymentParams) error {
	return e.W.Run(func(tx *txn.Txn) error {
		if err := tx.Add(TableWarehouse, WKey(p.W), WarehouseYTDOff, p.Amount); err != nil {
			return err
		}
		if err := tx.Add(TableDistrict, DKey(p.W, p.D), DistrictYTDOff, p.Amount); err != nil {
			return err
		}
		ck := CKey(p.CW, p.CD, p.C)
		if err := tx.Add(TableCustomer, ck, CustomerBalanceOff, uint64(-int64(p.Amount))); err != nil {
			return err
		}
		if err := tx.Add(TableCustomer, ck, CustomerYTDOff, p.Amount); err != nil {
			return err
		}
		if err := tx.Add(TableCustomer, ck, CustomerPayCntOff, 1); err != nil {
			return err
		}
		h := make([]byte, historySize)
		putU64(h, 0, uint64(p.C))
		putU64(h, 8, p.Amount)
		return tx.Insert(TableHistory, HKey(p.W, e.Gen.nextHistory()), h)
	})
}

// OrderStatus (read-only): customer, their last order and its lines.
func (e *Executor) OrderStatus() error {
	g := e.Gen
	w := g.home
	d := 1 + g.rng.Intn(DistrictsPerWarehouse)
	c := g.customer()
	return e.W.RunReadOnly(func(tx *txn.Txn) error {
		if _, err := tx.Read(TableCustomer, CKey(w, d, c)); err != nil {
			return err
		}
		lo, err := tx.Read(TableCustLastOrder, CKey(w, d, c))
		if err != nil {
			return err
		}
		oid := getU64(lo, 0)
		if oid == 0 {
			return nil // customer has never ordered
		}
		orow, err := tx.Read(TableOrder, OKey(w, d, int(oid)))
		if err != nil {
			if errors.Is(err, txn.ErrNotFound) {
				return nil
			}
			return err
		}
		cnt := int(OrderOLCnt(orow))
		for l := 1; l <= cnt; l++ {
			if _, err := tx.Read(TableOrderLine, OLKey(w, d, int(oid), l)); err != nil &&
				!errors.Is(err, txn.ErrNotFound) {
				return err
			}
		}
		return nil
	})
}

// Delivery: for each district of the home warehouse, consume the oldest
// NEW-ORDER row, stamp the order's carrier and its lines' delivery dates,
// and credit the customer. Entirely machine-local by construction. The
// oldest-row probe goes through the local ordered index; the row itself is
// then read through the protocol, so two racing deliveries of the same row
// serialize on its incarnation (one aborts and retries onto the next row).
func (e *Executor) Delivery() error {
	g := e.Gen
	w := g.home
	store := e.W.E.M.Store
	carrier := uint64(1 + g.rng.Intn(10))
	for d := 1; d <= DistrictsPerWarehouse; d++ {
		lo, hi := OKey(w, d, 0), OKey(w, d, 1<<24-1)
		key, _, ok := store.Table(TableNewOrder).Ordered().MinGE(lo)
		if !ok || key > hi {
			continue // no undelivered order in this district
		}
		err := e.W.Run(func(tx *txn.Txn) error {
			if _, err := tx.Read(TableNewOrder, key); err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					return nil // another delivery raced us; skip
				}
				return err
			}
			if err := tx.Delete(TableNewOrder, key); err != nil {
				return err
			}
			orow, err := tx.Read(TableOrder, key)
			if err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					return nil
				}
				return err
			}
			SetOrderCarrier(orow, carrier)
			if err := tx.Write(TableOrder, key, orow); err != nil {
				return err
			}
			cid := OrderCustomer(orow)
			cnt := int(OrderOLCnt(orow))
			oid := int(key & 0xFFFFFF)
			var total uint64
			for l := 1; l <= cnt; l++ {
				olk := OLKey(w, d, oid, l)
				ol, err := tx.Read(TableOrderLine, olk)
				if err != nil {
					if errors.Is(err, txn.ErrNotFound) {
						continue
					}
					return err
				}
				total += OrderLineAmount(ol)
				SetOrderLineDelivery(ol, 1)
				if err := tx.Write(TableOrderLine, olk, ol); err != nil {
					return err
				}
			}
			crow, err := tx.Read(TableCustomer, CKey(w, d, int(cid)))
			if err != nil {
				return err
			}
			CustomerAddDelivery(crow, total)
			return tx.Write(TableCustomer, CKey(w, d, int(cid)), crow)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// StockLevel (read-only): count stock rows below a threshold among the items
// of the district's last 20 orders. Machine-local.
func (e *Executor) StockLevel() error {
	g := e.Gen
	w := g.home
	d := 1 + g.rng.Intn(DistrictsPerWarehouse)
	threshold := uint64(10 + g.rng.Intn(11))
	return e.W.RunReadOnly(func(tx *txn.Txn) error {
		drow, err := tx.Read(TableDistrict, DKey(w, d))
		if err != nil {
			return err
		}
		next := int(DistrictNextOID(drow))
		loO := next - 20
		if loO < 1 {
			loO = 1
		}
		// Probe order-line keys through the local ordered index, then read
		// each row through the protocol, in scan order so a replay reads alike.
		keys := make([]uint64, 0, 200)
		store := tx.Store()
		store.Table(TableOrderLine).Ordered().Scan(
			OLKey(w, d, loO, 0), OLKey(w, d, next, 15),
			func(key, _ uint64) bool {
				keys = append(keys, key)
				return len(keys) < 200
			})
		low := 0
		for _, key := range keys {
			ol, err := tx.Read(TableOrderLine, key)
			if err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					continue
				}
				return err
			}
			srow, err := tx.Read(TableStock, SKey(w, int(OrderLineItem(ol))))
			if err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					continue
				}
				return err
			}
			if StockQuantity(srow) < threshold {
				low++
			}
		}
		return nil
	})
}
