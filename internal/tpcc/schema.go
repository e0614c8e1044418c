// Package tpcc implements a scaled-down TPC-C workload against the engine.
//
// The paper evaluates FaCE with the TPC-C benchmark generated by
// BenchmarkSQL on a 50 GB database (500 warehouses).  This package
// reproduces the *shape* of that workload — the nine tables, their
// cardinality ratios, the NURand skew on customer and item selection, and
// the standard five-transaction mix — at a configurable scale so a full
// parameter sweep runs in seconds on the simulated devices.
//
// Record layouts are fixed-size byte slices whose sizes approximate the
// TPC-C row widths, so the number of rows per page (and hence the page
// access pattern) is realistic.  Only the fields the transactions actually
// read or modify are materialised; the rest is padding.
package tpcc

import (
	"encoding/binary"
	"fmt"
)

// Record sizes in bytes, approximating the TPC-C schema row widths.
const (
	warehouseRecSize = 96
	districtRecSize  = 112
	customerRecSize  = 400
	historyRecSize   = 48
	orderRecSize     = 40
	newOrderRecSize  = 12
	orderLineRecSize = 56
	itemRecSize      = 88
	stockRecSize     = 312
)

// Config sizes the database and the workload.
type Config struct {
	// Warehouses is the scale factor W.
	Warehouses int
	// DistrictsPerWarehouse is fixed at 10 by the TPC-C specification but
	// configurable for tiny tests.
	DistrictsPerWarehouse int
	// CustomersPerDistrict scales the CUSTOMER table (3000 in the full
	// specification).
	CustomersPerDistrict int
	// Items scales the ITEM/STOCK tables (100 000 in the specification).
	Items int
	// InitialOrdersPerDistrict scales the ORDERS/ORDER-LINE history
	// loaded before the measurement starts (3000 in the specification).
	InitialOrdersPerDistrict int
	// Seed makes the workload deterministic.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration that preserves the
// specification's ratios (1 warehouse ≈ a few thousand 4 KiB pages).
func DefaultConfig(warehouses int) Config {
	if warehouses < 1 {
		warehouses = 1
	}
	return Config{
		Warehouses:               warehouses,
		DistrictsPerWarehouse:    10,
		CustomersPerDistrict:     300,
		Items:                    2000,
		InitialOrdersPerDistrict: 300,
		Seed:                     42,
	}
}

func (c *Config) normalize() {
	if c.Warehouses < 1 {
		c.Warehouses = 1
	}
	if c.DistrictsPerWarehouse < 1 {
		c.DistrictsPerWarehouse = 10
	}
	if c.CustomersPerDistrict < 3 {
		c.CustomersPerDistrict = 3
	}
	if c.Items < 10 {
		c.Items = 10
	}
	if c.InitialOrdersPerDistrict < 1 {
		c.InitialOrdersPerDistrict = 1
	}
	if c.InitialOrdersPerDistrict > c.CustomersPerDistrict {
		c.InitialOrdersPerDistrict = c.CustomersPerDistrict
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Warehouses < 1 {
		return fmt.Errorf("tpcc: Warehouses must be >= 1")
	}
	return nil
}

// --- composite key encoding -------------------------------------------------

// Key encodings pack the TPC-C composite primary keys into uint64 B+tree
// keys.  Order numbers are bounded by orderSpan per district, which leaves
// room for tens of millions of new orders per district in a run.
const (
	orderSpan    = 100_000_000 // max order id per district
	orderLineMax = 16          // max order lines per order (spec: 5-15)
)

func districtKey(w, d int) uint64 {
	return uint64(w)*100 + uint64(d)
}

func customerKey(w, d, c int) uint64 {
	return districtKey(w, d)*1_000_000 + uint64(c)
}

func itemKey(i int) uint64 { return uint64(i) }

func stockKey(w, i int) uint64 {
	return uint64(w)*10_000_000 + uint64(i)
}

func orderKey(w, d, o int) uint64 {
	return districtKey(w, d)*orderSpan + uint64(o)
}

func orderLineKey(w, d, o, ol int) uint64 {
	return orderKey(w, d, o)*orderLineMax + uint64(ol)
}

// customerOrderKey indexes orders by customer so Order-Status can find a
// customer's most recent order with a short range scan.
func customerOrderKey(w, d, c, o int) uint64 {
	return customerKey(w, d, c)*orderSpan/100 + uint64(o)
}

// --- record field accessors --------------------------------------------------

// Every record type reserves its first bytes for the fields the
// transactions touch; the remainder is padding that only exists to give the
// record its realistic width.

// Warehouse: [ytd float64-as-uint64][tax u32][pad]
func newWarehouseRec(w int) []byte {
	rec := make([]byte, warehouseRecSize)
	binary.LittleEndian.PutUint32(rec[8:], uint32(w%2000))
	return rec
}

func warehouseAddYTD(rec []byte, amount uint64) {
	binary.LittleEndian.PutUint64(rec, binary.LittleEndian.Uint64(rec)+amount)
}

func warehouseYTD(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

// District: [ytd u64][nextOID u32][tax u32][pad]
func newDistrictRec(d, firstFreeOrder int) []byte {
	rec := make([]byte, districtRecSize)
	binary.LittleEndian.PutUint32(rec[8:], uint32(firstFreeOrder))
	binary.LittleEndian.PutUint32(rec[12:], uint32(d%2000))
	return rec
}

func districtAddYTD(rec []byte, amount uint64) {
	binary.LittleEndian.PutUint64(rec, binary.LittleEndian.Uint64(rec)+amount)
}

func districtYTD(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

func districtNextOrder(rec []byte) int { return int(binary.LittleEndian.Uint32(rec[8:])) }

func districtSetNextOrder(rec []byte, o int) { binary.LittleEndian.PutUint32(rec[8:], uint32(o)) }

// Customer: [balance i64][ytdPayment u64][paymentCount u32][deliveryCount u32][data...pad]
func newCustomerRec(c int) []byte {
	rec := make([]byte, customerRecSize)
	initialBalance := int64(-10)
	binary.LittleEndian.PutUint64(rec, uint64(initialBalance))
	return rec
}

func customerBalance(rec []byte) int64 { return int64(binary.LittleEndian.Uint64(rec)) }

func customerAddBalance(rec []byte, delta int64) {
	binary.LittleEndian.PutUint64(rec, uint64(customerBalance(rec)+delta))
}

func customerAddPayment(rec []byte, amount uint64) {
	binary.LittleEndian.PutUint64(rec[8:], binary.LittleEndian.Uint64(rec[8:])+amount)
	binary.LittleEndian.PutUint32(rec[16:], binary.LittleEndian.Uint32(rec[16:])+1)
}

func customerAddDelivery(rec []byte) {
	binary.LittleEndian.PutUint32(rec[20:], binary.LittleEndian.Uint32(rec[20:])+1)
}

// History: [wid u32][did u32][cid u32][amount u32][pad]
func newHistoryRec(w, d, c int, amount uint64) []byte {
	rec := make([]byte, historyRecSize)
	binary.LittleEndian.PutUint32(rec[0:], uint32(w))
	binary.LittleEndian.PutUint32(rec[4:], uint32(d))
	binary.LittleEndian.PutUint32(rec[8:], uint32(c))
	binary.LittleEndian.PutUint32(rec[12:], uint32(amount))
	return rec
}

// Order: [cid u32][carrier u32][lineCount u32][entryDate u32][pad]
func newOrderRec(c, lineCount, entryDate int) []byte {
	rec := make([]byte, orderRecSize)
	binary.LittleEndian.PutUint32(rec[0:], uint32(c))
	binary.LittleEndian.PutUint32(rec[8:], uint32(lineCount))
	binary.LittleEndian.PutUint32(rec[12:], uint32(entryDate))
	return rec
}

func orderCustomer(rec []byte) int { return int(binary.LittleEndian.Uint32(rec[0:])) }

func orderCarrier(rec []byte) int { return int(binary.LittleEndian.Uint32(rec[4:])) }

func orderSetCarrier(rec []byte, carrier int) {
	binary.LittleEndian.PutUint32(rec[4:], uint32(carrier))
}

func orderLineCount(rec []byte) int { return int(binary.LittleEndian.Uint32(rec[8:])) }

// NewOrder: [oid u32][pad]
func newNewOrderRec(o int) []byte {
	rec := make([]byte, newOrderRecSize)
	binary.LittleEndian.PutUint32(rec, uint32(o))
	return rec
}

// OrderLine: [item u32][quantity u32][amount u32][deliveryDate u32][pad]
//
// putOrderLineRec fills rec, orderLineRecSize zero bytes, with a new order
// line.
func putOrderLineRec(rec []byte, item, quantity int, amount uint64) {
	binary.LittleEndian.PutUint32(rec[0:], uint32(item))
	binary.LittleEndian.PutUint32(rec[4:], uint32(quantity))
	binary.LittleEndian.PutUint32(rec[8:], uint32(amount))
}

func orderLineItem(rec []byte) int { return int(binary.LittleEndian.Uint32(rec[0:])) }

func orderLineAmount(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec[8:])) }

func orderLineSetDeliveryDate(rec []byte, date int) {
	binary.LittleEndian.PutUint32(rec[12:], uint32(date))
}

// Item: [price u32][pad]
func newItemRec(i int) []byte {
	rec := make([]byte, itemRecSize)
	binary.LittleEndian.PutUint32(rec, uint32(100+i%9900))
	return rec
}

func itemPrice(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec)) }

// Stock: [quantity u32][ytd u32][orderCount u32][remoteCount u32][pad]
func newStockRec(i int) []byte {
	rec := make([]byte, stockRecSize)
	binary.LittleEndian.PutUint32(rec, uint32(10+i%91))
	return rec
}

func stockQuantity(rec []byte) int { return int(binary.LittleEndian.Uint32(rec)) }

func stockSetQuantity(rec []byte, q int) { binary.LittleEndian.PutUint32(rec, uint32(q)) }

func stockAddOrder(rec []byte, quantity int, remote bool) {
	binary.LittleEndian.PutUint32(rec[4:], binary.LittleEndian.Uint32(rec[4:])+uint32(quantity))
	binary.LittleEndian.PutUint32(rec[8:], binary.LittleEndian.Uint32(rec[8:])+1)
	if remote {
		binary.LittleEndian.PutUint32(rec[12:], binary.LittleEndian.Uint32(rec[12:])+1)
	}
}
