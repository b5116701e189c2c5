// Package tpcc implements the TPC-C benchmark as used in the paper's §7:
// the full nine-table order-entry schema and all five transaction types run
// under the standard mix (new-order 45%, payment 43%, order-status 4%,
// delivery 4%, stock-level 4%). The database partitions by warehouse across
// machines; the knobs the paper sweeps — warehouses per machine (Fig 19),
// cross-warehouse access probability for new-order (Fig 17, default 1%) and
// payment (15%), warehouses per thread vs. one per machine (Fig 18) — are
// all Config fields.
//
// Deliberate deltas from the full TPC-C specification, chosen to keep the
// conflict structure intact while fitting the simulator (documented in
// DESIGN.md): fixed-size binary rows sized to preserve multi-cacheline
// records (the thing HTM/RDMA care about) rather than full ASCII payloads;
// order-status picks customers by id (the by-last-name path needs a
// secondary index scan that is always machine-local and adds nothing to the
// protocol); a small CustomerLastOrder side table replaces the by-customer
// order index.
package tpcc

import (
	"encoding/binary"
	"fmt"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// Table IDs.
const (
	TableWarehouse memstore.TableID = 20 + iota
	TableDistrict
	TableCustomer
	TableHistory
	TableNewOrder
	TableOrder
	TableOrderLine
	TableItem
	TableStock
	TableCustLastOrder
)

// Scale constants (TPC-C cardinalities; Items reduced 10x to keep the
// simulated arena small — the hot set and conflict structure are preserved
// because item ids are drawn with the same NURand skew).
const (
	DistrictsPerWarehouse = 10
	CustomersPerDistrict  = 300 // spec: 3000; reduced with the same skew
	ItemCount             = 10000
	StockPerWarehouse     = ItemCount
	InitialNextOrder      = 1 // orders start empty; spec preloads 3000
)

// Key packing. Warehouses are 1-based and fit 12 bits; districts 4 bits;
// customers 12 bits; order ids 24 bits; order lines 4 bits.
func WKey(w int) uint64 { return uint64(w) }

// DKey packs a district key.
func DKey(w, d int) uint64 { return uint64(w)<<4 | uint64(d) }

// CKey packs a customer key.
func CKey(w, d, c int) uint64 { return uint64(w)<<16 | uint64(d)<<12 | uint64(c) }

// OKey packs an order key (also used for NEW-ORDER rows).
func OKey(w, d, o int) uint64 { return uint64(w)<<28 | uint64(d)<<24 | uint64(o) }

// OLKey packs an order-line key.
func OLKey(w, d, o, l int) uint64 {
	return uint64(w)<<32 | uint64(d)<<28 | uint64(o)<<4 | uint64(l)
}

// IKey packs an item key.
func IKey(i int) uint64 { return uint64(i) }

// SKey packs a stock key.
func SKey(w, i int) uint64 { return uint64(w)<<20 | uint64(i) }

// HKey packs a history key (unique per machine via a worker counter).
func HKey(w int, seq uint64) uint64 { return uint64(w)<<40 | seq }

// Row sizes (bytes). Chosen so the records HTM and RDMA fight over span
// multiple cachelines like the real rows do.
const (
	warehouseSize = 96
	districtSize  = 96
	customerSize  = 200
	historySize   = 48
	newOrderSize  = 8
	orderSize     = 40
	orderLineSize = 48
	itemSize      = 80
	stockSize     = 96
	lastOrderSize = 8
)

// Config shapes a TPC-C deployment.
type Config struct {
	Nodes             int
	WarehousesPerNode int
	// RemoteNewOrderProb is the per-item probability that new-order
	// supplies from a random other warehouse (spec & paper default 1%).
	RemoteNewOrderProb float64
	// RemotePaymentProb is the probability payment pays through a remote
	// warehouse's customer (spec & paper default 15%).
	RemotePaymentProb float64
}

// DefaultConfig mirrors the paper's default: one warehouse per worker
// thread is set by the harness; this is the per-machine layout.
func DefaultConfig(nodes, warehousesPerNode int) Config {
	return Config{
		Nodes:              nodes,
		WarehousesPerNode:  warehousesPerNode,
		RemoteNewOrderProb: 0.01,
		RemotePaymentProb:  0.15,
	}
}

// Warehouses returns the total warehouse count.
func (c Config) Warehouses() int { return c.Nodes * c.WarehousesPerNode }

// NodeOfWarehouse maps warehouse w (1-based) to its home machine.
func (c Config) NodeOfWarehouse(w int) int { return (w - 1) / c.WarehousesPerNode }

// WarehousesOf lists machine node's warehouses.
func (c Config) WarehousesOf(node int) []int {
	var out []int
	for w := node*c.WarehousesPerNode + 1; w <= (node+1)*c.WarehousesPerNode; w++ {
		out = append(out, w)
	}
	return out
}

// Partitioner builds the shard function for the engine on machine self.
// Everything keys by warehouse except ITEM, which is replicated read-only on
// every machine (as in the paper's setup) and therefore always local.
func (c Config) Partitioner(self rdma.NodeID) txn.Partitioner {
	return func(table memstore.TableID, key uint64) cluster.ShardID {
		if table == TableItem {
			return cluster.ShardID(self)
		}
		var w int
		switch table {
		case TableWarehouse:
			w = int(key)
		case TableDistrict:
			w = int(key >> 4)
		case TableCustomer, TableCustLastOrder:
			w = int(key >> 16)
		case TableNewOrder, TableOrder:
			w = int(key >> 28)
		case TableOrderLine:
			w = int(key >> 32)
		case TableStock:
			w = int(key >> 20)
		case TableHistory:
			w = int(key >> 40)
		default:
			w = 1
		}
		return cluster.ShardID(c.NodeOfWarehouse(w))
	}
}

// CreateTables registers the nine tables (+ the last-order side table) on a
// machine's store, in deterministic order so geometry matches cluster-wide.
func CreateTables(store *memstore.Store, c Config) {
	wh := c.WarehousesPerNode
	rows := func(perWh int) int { return wh*perWh + 16 }
	specs := []struct {
		id   memstore.TableID
		spec memstore.TableSpec
	}{
		{TableWarehouse, memstore.TableSpec{Name: "warehouse", ValueSize: warehouseSize, ExpectedRows: rows(1)}},
		{TableDistrict, memstore.TableSpec{Name: "district", ValueSize: districtSize, ExpectedRows: rows(DistrictsPerWarehouse)}},
		{TableCustomer, memstore.TableSpec{Name: "customer", ValueSize: customerSize, ExpectedRows: rows(DistrictsPerWarehouse * CustomersPerDistrict)}},
		{TableHistory, memstore.TableSpec{Name: "history", ValueSize: historySize, ExpectedRows: rows(DistrictsPerWarehouse * CustomersPerDistrict)}},
		{TableNewOrder, memstore.TableSpec{Name: "new-order", ValueSize: newOrderSize, ExpectedRows: rows(DistrictsPerWarehouse * 512), Ordered: true}},
		{TableOrder, memstore.TableSpec{Name: "order", ValueSize: orderSize, ExpectedRows: rows(DistrictsPerWarehouse * 1024), Ordered: true}},
		{TableOrderLine, memstore.TableSpec{Name: "order-line", ValueSize: orderLineSize, ExpectedRows: rows(DistrictsPerWarehouse * 1024 * 10), Ordered: true}},
		{TableItem, memstore.TableSpec{Name: "item", ValueSize: itemSize, ExpectedRows: ItemCount}},
		{TableStock, memstore.TableSpec{Name: "stock", ValueSize: stockSize, ExpectedRows: rows(StockPerWarehouse)}},
		{TableCustLastOrder, memstore.TableSpec{Name: "cust-last-order", ValueSize: lastOrderSize, ExpectedRows: rows(DistrictsPerWarehouse * CustomersPerDistrict)}},
	}
	for _, s := range specs {
		store.CreateTable(s.id, s.spec)
	}
}

// Row codecs: little-endian u64 fields at fixed offsets, remainder padding.

func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:off+8], v) }
func getU64(b []byte, off int) uint64    { return binary.LittleEndian.Uint64(b[off : off+8]) }

// Commutative fields (txn.Add offsets). These are the delta-shaped columns
// of the workload — pure accumulators no transaction branches on — so
// updates to them are declared as commutative adds instead of
// read-modify-writes: Payment's warehouse/district/customer updates stop
// conflicting with each other entirely. next_o_id is NOT here: NewOrder
// needs its value for the order keys, so it stays a read-modify-write and
// relies on the contention manager's hot-key queue instead.
const (
	WarehouseYTDOff    = 8  // warehouse ytd accumulator
	DistrictYTDOff     = 8  // district ytd accumulator
	CustomerBalanceOff = 0  // customer balance (signed; subtract via two's complement)
	CustomerYTDOff     = 8  // customer ytdPayment accumulator
	CustomerPayCntOff  = 16 // customer paymentCnt counter
)

// Warehouse row: [tax, ytd].
func WarehouseRow(tax, ytd uint64) []byte {
	b := make([]byte, warehouseSize)
	putU64(b, 0, tax)
	putU64(b, 8, ytd)
	return b
}

// WarehouseYTD extracts the YTD field.
func WarehouseYTD(b []byte) uint64 { return getU64(b, 8) }

// WarehouseTax extracts the tax field.
func WarehouseTax(b []byte) uint64 { return getU64(b, 0) }

// SetWarehouseYTD updates the YTD field in place.
func SetWarehouseYTD(b []byte, v uint64) { putU64(b, 8, v) }

// District row: [tax, ytd, nextOID].
func DistrictRow(tax, ytd, nextOID uint64) []byte {
	b := make([]byte, districtSize)
	putU64(b, 0, tax)
	putU64(b, 8, ytd)
	putU64(b, 16, nextOID)
	return b
}

// DistrictNextOID extracts the next order id.
func DistrictNextOID(b []byte) uint64 { return getU64(b, 16) }

// SetDistrictNextOID updates the next order id in place.
func SetDistrictNextOID(b []byte, v uint64) { putU64(b, 16, v) }

// DistrictYTD extracts the YTD field.
func DistrictYTD(b []byte) uint64 { return getU64(b, 8) }

// SetDistrictYTD updates the YTD field in place.
func SetDistrictYTD(b []byte, v uint64) { putU64(b, 8, v) }

// Customer row: [balance(int64), ytdPayment, paymentCnt, deliveryCnt, discount].
func CustomerRow(balance int64, discount uint64) []byte {
	b := make([]byte, customerSize)
	putU64(b, 0, uint64(balance))
	putU64(b, 32, discount)
	return b
}

// CustomerBalance extracts the (signed) balance.
func CustomerBalance(b []byte) int64 { return int64(getU64(b, 0)) }

// SetCustomerBalance updates the balance in place.
func SetCustomerBalance(b []byte, v int64) { putU64(b, 0, uint64(v)) }

// CustomerAddPayment applies a payment to the row in place.
func CustomerAddPayment(b []byte, amount uint64) {
	SetCustomerBalance(b, CustomerBalance(b)-int64(amount))
	putU64(b, 8, getU64(b, 8)+amount) // ytdPayment
	putU64(b, 16, getU64(b, 16)+1)    // paymentCnt
}

// CustomerAddDelivery credits a delivered order's total in place.
func CustomerAddDelivery(b []byte, amount uint64) {
	SetCustomerBalance(b, CustomerBalance(b)+int64(amount))
	putU64(b, 24, getU64(b, 24)+1) // deliveryCnt
}

// Order row: [customer, entryDate, carrier, olCnt].
func OrderRow(customer, entryDate, carrier, olCnt uint64) []byte {
	b := make([]byte, orderSize)
	putU64(b, 0, customer)
	putU64(b, 8, entryDate)
	putU64(b, 16, carrier)
	putU64(b, 24, olCnt)
	return b
}

// OrderCustomer extracts the customer id field.
func OrderCustomer(b []byte) uint64 { return getU64(b, 0) }

// OrderOLCnt extracts the order-line count.
func OrderOLCnt(b []byte) uint64 { return getU64(b, 24) }

// SetOrderCarrier updates the carrier field in place.
func SetOrderCarrier(b []byte, v uint64) { putU64(b, 16, v) }

// OrderLine row: [item, supplyW, qty, amount, deliveryDate].
func OrderLineRow(item, supplyW, qty, amount uint64) []byte {
	b := make([]byte, orderLineSize)
	putU64(b, 0, item)
	putU64(b, 8, supplyW)
	putU64(b, 16, qty)
	putU64(b, 24, amount)
	return b
}

// OrderLineItem extracts the item id.
func OrderLineItem(b []byte) uint64 { return getU64(b, 0) }

// OrderLineAmount extracts the line amount.
func OrderLineAmount(b []byte) uint64 { return getU64(b, 24) }

// SetOrderLineDelivery sets the delivery date in place.
func SetOrderLineDelivery(b []byte, v uint64) { putU64(b, 32, v) }

// Item row: [price].
func ItemRow(price uint64) []byte {
	b := make([]byte, itemSize)
	putU64(b, 0, price)
	return b
}

// ItemPrice extracts the price.
func ItemPrice(b []byte) uint64 { return getU64(b, 0) }

// Stock row: [quantity, ytd, orderCnt, remoteCnt].
func StockRow(quantity uint64) []byte {
	b := make([]byte, stockSize)
	putU64(b, 0, quantity)
	return b
}

// StockQuantity extracts the quantity.
func StockQuantity(b []byte) uint64 { return getU64(b, 0) }

// ApplyStockOrder updates a stock row in place for qty ordered (TPC-C rule:
// refill by 91 when dropping under 10).
func ApplyStockOrder(b []byte, qty uint64, remote bool) {
	q := getU64(b, 0)
	if q >= qty+10 {
		q -= qty
	} else {
		q = q - qty + 91
	}
	putU64(b, 0, q)
	putU64(b, 8, getU64(b, 8)+qty) // ytd
	putU64(b, 16, getU64(b, 16)+1) // orderCnt
	if remote {
		putU64(b, 24, getU64(b, 24)+1) // remoteCnt
	}
}

// LoadCluster creates the tables on every machine and loads every shard on
// its primary and its backups. Node n's stream is seeded seed+n and drawn in
// one order — its ITEM copy (replicated everywhere, loaded with the primary
// shard), then its warehouses — and every holder of a warehouse loads it from
// the same point of that stream, so a backup promoted after a failure serves
// exactly the rows its primary held.
func LoadCluster(c *cluster.Cluster, wcfg Config, seed uint64) error {
	for _, m := range c.Machines {
		CreateTables(m.Store, wcfg)
	}
	cfg0 := c.Coord.Current()
	for n := 0; n < wcfg.Nodes; n++ {
		shard := cluster.ShardID(n)
		primary := c.Machines[cfg0.PrimaryOf(shard)].Store
		rng := sim.NewRand(seed + uint64(n) + 1)
		for i := 1; i <= ItemCount; i++ {
			if _, err := primary.Table(TableItem).Insert(IKey(i), ItemRow(uint64(100+rng.Intn(9900)))); err != nil {
				return fmt.Errorf("tpcc load item %d: %w", i, err)
			}
		}
		for _, w := range wcfg.WarehousesOf(n) {
			at := *rng
			if err := loadWarehouse(primary, w, rng); err != nil {
				return err
			}
			for _, b := range cfg0.BackupsOf(shard) {
				r := at
				if err := loadWarehouse(c.Machines[b].Store, w, &r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// loadWarehouse populates a single warehouse's rows into store.
func loadWarehouse(store *memstore.Store, w int, rng *sim.Rand) error {
	if _, err := store.Table(TableWarehouse).Insert(WKey(w), WarehouseRow(uint64(rng.Intn(2000)), 0)); err != nil {
		return fmt.Errorf("tpcc load warehouse %d: %w", w, err)
	}
	for d := 1; d <= DistrictsPerWarehouse; d++ {
		if _, err := store.Table(TableDistrict).Insert(DKey(w, d), DistrictRow(uint64(rng.Intn(2000)), 0, InitialNextOrder)); err != nil {
			return err
		}
		for cu := 1; cu <= CustomersPerDistrict; cu++ {
			if _, err := store.Table(TableCustomer).Insert(CKey(w, d, cu), CustomerRow(-10, uint64(rng.Intn(5000)))); err != nil {
				return err
			}
			if _, err := store.Table(TableCustLastOrder).Insert(CKey(w, d, cu), make([]byte, lastOrderSize)); err != nil {
				return err
			}
		}
	}
	for i := 1; i <= StockPerWarehouse; i++ {
		if _, err := store.Table(TableStock).Insert(SKey(w, i), StockRow(uint64(10+rng.Intn(91)))); err != nil {
			return err
		}
	}
	return nil
}
