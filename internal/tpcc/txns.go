package tpcc

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// ErrRollback marks an expected transaction rollback (the 1 % of New-Order
// transactions the specification requires to abort on an unused item id).
var ErrRollback = errors.New("tpcc: expected rollback")

// errNotFound wraps lookups that should always succeed on a loaded
// database; hitting it indicates a corrupted database or index.
func errNotFound(what string, key uint64) error {
	return fmt.Errorf("tpcc: %s with key %d not found", what, key)
}

// NewOrder executes the TPC-C New-Order transaction against warehouse w.
func (d *Database) NewOrder(tx *engine.Tx, rng *rand.Rand, w int) error {
	cfg := d.cfg
	dist := randInt(rng, 1, cfg.DistrictsPerWarehouse)
	cust := randCustomer(rng, cfg.CustomersPerDistrict)
	lineCount := randInt(rng, 5, 15)
	rollback := rng.Intn(100) == 0

	// Warehouse tax (read-only).
	if err := d.warehouse.Get(tx, d.warehouseRID[w], func(rec []byte) error { return nil }); err != nil {
		return err
	}

	// District: read and increment the next order id.
	var orderID int
	dk := districtKey(w, dist)
	err := d.district.Update(tx, d.districtRID[dk], func(rec []byte) error {
		orderID = districtNextOrder(rec)
		districtSetNextOrder(rec, orderID+1)
		return nil
	})
	if err != nil {
		return err
	}

	// Customer (read-only: discount, credit).
	custRID, ok, err := d.customerIdx.Get(tx, customerKey(w, dist, cust))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("customer", customerKey(w, dist, cust))
	}
	if err := d.customer.Get(tx, custRID, func(rec []byte) error { return nil }); err != nil {
		return err
	}

	// Order and NEW-ORDER rows.
	orid, err := d.order.Insert(tx, newOrderRec(cust, lineCount, orderID))
	if err != nil {
		return err
	}
	if err := d.orderIdx.Insert(tx, orderKey(w, dist, orderID), orid); err != nil {
		return err
	}
	if err := d.custOrderIdx.Insert(tx, customerOrderKey(w, dist, cust, orderID), orid); err != nil {
		return err
	}
	norid, err := d.newOrder.Insert(tx, newNewOrderRec(orderID))
	if err != nil {
		return err
	}
	if err := d.newOrderIdx.Insert(tx, orderKey(w, dist, orderID), norid); err != nil {
		return err
	}

	// Order lines: each item and its stock, and then the lines, a page of
	// the table and its index entries at a time.
	var lines orderLines
	for ol := 1; ol <= lineCount; ol++ {
		if rollback && ol == lineCount {
			// Unused item id: the whole transaction rolls back.
			return ErrRollback
		}
		item := randItem(rng, cfg.Items)
		supplyW := w
		remote := false
		if cfg.Warehouses > 1 && rng.Intn(100) == 0 {
			supplyW = randInt(rng, 1, cfg.Warehouses)
			remote = supplyW != w
		}
		itemRID, ok, err := d.itemIdx.Get(tx, itemKey(item))
		if err != nil {
			return err
		}
		if !ok {
			return errNotFound("item", itemKey(item))
		}
		var price uint64
		if err := d.item.Get(tx, itemRID, func(rec []byte) error {
			price = itemPrice(rec)
			return nil
		}); err != nil {
			return err
		}

		quantity := randInt(rng, 1, 10)
		stockRID, ok, err := d.stockIdx.Get(tx, stockKey(supplyW, item))
		if err != nil {
			return err
		}
		if !ok {
			return errNotFound("stock", stockKey(supplyW, item))
		}
		if err := d.stock.Update(tx, stockRID, func(rec []byte) error {
			q := stockQuantity(rec)
			if q >= quantity+10 {
				q -= quantity
			} else {
				q = q - quantity + 91
			}
			stockSetQuantity(rec, q)
			stockAddOrder(rec, quantity, remote)
			return nil
		}); err != nil {
			return err
		}

		lines.add(orderLineKey(w, dist, orderID, ol), item, quantity, price*uint64(quantity))
	}
	return d.insertOrderLines(tx, &lines)
}

// Payment executes the TPC-C Payment transaction against warehouse w.
func (d *Database) Payment(tx *engine.Tx, rng *rand.Rand, w int) error {
	cfg := d.cfg
	dist := randInt(rng, 1, cfg.DistrictsPerWarehouse)
	amount := uint64(randInt(rng, 100, 500000))

	// 15 % of payments are made through a remote warehouse/district.
	custW, custD := w, dist
	if cfg.Warehouses > 1 && rng.Intn(100) < 15 {
		for {
			custW = randInt(rng, 1, cfg.Warehouses)
			if custW != w || cfg.Warehouses == 1 {
				break
			}
		}
		custD = randInt(rng, 1, cfg.DistrictsPerWarehouse)
	}
	cust := randCustomer(rng, cfg.CustomersPerDistrict)

	if err := d.warehouse.Update(tx, d.warehouseRID[w], func(rec []byte) error {
		warehouseAddYTD(rec, amount)
		return nil
	}); err != nil {
		return err
	}
	if err := d.district.Update(tx, d.districtRID[districtKey(w, dist)], func(rec []byte) error {
		districtAddYTD(rec, amount)
		return nil
	}); err != nil {
		return err
	}

	custRID, ok, err := d.customerIdx.Get(tx, customerKey(custW, custD, cust))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("customer", customerKey(custW, custD, cust))
	}
	if err := d.customer.Update(tx, custRID, func(rec []byte) error {
		customerAddBalance(rec, -int64(amount))
		customerAddPayment(rec, amount)
		return nil
	}); err != nil {
		return err
	}

	_, err = d.history.Insert(tx, newHistoryRec(custW, custD, cust, amount))
	return err
}

// OrderStatus executes the TPC-C Order-Status transaction (read-only).
func (d *Database) OrderStatus(tx *engine.Tx, rng *rand.Rand, w int) error {
	cfg := d.cfg
	dist := randInt(rng, 1, cfg.DistrictsPerWarehouse)
	cust := randCustomer(rng, cfg.CustomersPerDistrict)

	custRID, ok, err := d.customerIdx.Get(tx, customerKey(w, dist, cust))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("customer", customerKey(w, dist, cust))
	}
	if err := d.customer.Get(tx, custRID, func(rec []byte) error { return nil }); err != nil {
		return err
	}

	// Most recent order of the customer.
	lo := customerOrderKey(w, dist, cust, 0)
	hi := customerOrderKey(w, dist, cust, orderSpan/100-1)
	var lastOrder uint64
	var lastRID page.RID
	found := false
	if err := d.custOrderIdx.Scan(tx, lo, hi, func(k uint64, rid page.RID) error {
		lastOrder = k
		lastRID = rid
		found = true
		return nil
	}); err != nil {
		return err
	}
	if !found {
		// A customer without orders is possible at small scales.
		return nil
	}
	orderID := int(lastOrder - lo)
	if err := d.order.Get(tx, lastRID, func(rec []byte) error { return nil }); err != nil {
		return err
	}
	var lines [orderLineMax]page.RID
	n, err := d.orderLineRIDs(tx, w, dist, orderID, orderID, lines[:])
	if err != nil {
		return err
	}
	for _, rid := range lines[:n] {
		if err := d.orderLine.Get(tx, rid, func(rec []byte) error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

// orderLineRIDs stores in rids the RIDs of the lines of orders first to
// last of district (w, dist), in key order, found with one scan of the
// order-line index, and returns how many there are.  rids must have room
// for orderLineMax-1 lines an order.
func (d *Database) orderLineRIDs(tx *engine.Tx, w, dist, first, last int, rids []page.RID) (int, error) {
	n := 0
	err := d.orderLineIdx.Scan(tx, orderLineKey(w, dist, first, 0), orderLineKey(w, dist, last, orderLineMax-1), func(k uint64, rid page.RID) error {
		if n == len(rids) {
			return fmt.Errorf("tpcc: more than %d lines in orders %d to %d of district %d", len(rids), first, last, districtKey(w, dist))
		}
		rids[n] = rid
		n++
		return nil
	})
	return n, err
}

// Delivery executes the TPC-C Delivery transaction: the oldest undelivered
// order of every district is delivered.
func (d *Database) Delivery(tx *engine.Tx, rng *rand.Rand, w int) error {
	cfg := d.cfg
	carrier := randInt(rng, 1, 10)
	for dist := 1; dist <= cfg.DistrictsPerWarehouse; dist++ {
		// Take the oldest NEW-ORDER index entry, then its row.
		lo := orderKey(w, dist, 0)
		oldestKey, oldestRID, found, err := d.newOrderIdx.DeleteFirst(tx, lo, orderKey(w, dist, orderSpan-1))
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		orderID := int(oldestKey - lo)
		if err := d.newOrder.Delete(tx, oldestRID); err != nil {
			return err
		}

		// Update the order with the carrier and collect its lines.
		ordRID, ok, err := d.orderIdx.Get(tx, orderKey(w, dist, orderID))
		if err != nil {
			return err
		}
		if !ok {
			return errNotFound("order", orderKey(w, dist, orderID))
		}
		var cust int
		if err := d.order.Update(tx, ordRID, func(rec []byte) error {
			cust = orderCustomer(rec)
			orderSetCarrier(rec, carrier)
			return nil
		}); err != nil {
			return err
		}

		// Its lines, found with one scan and updated a page at a time.
		var lines [orderLineMax]page.RID
		n, err := d.orderLineRIDs(tx, w, dist, orderID, orderID, lines[:])
		if err != nil {
			return err
		}
		var total uint64
		if err := d.orderLine.UpdateEach(tx, lines[:n], func(_ int, rec []byte) error {
			total += orderLineAmount(rec)
			orderLineSetDeliveryDate(rec, orderID)
			return nil
		}); err != nil {
			return err
		}

		custRID, ok, err := d.customerIdx.Get(tx, customerKey(w, dist, cust))
		if err != nil {
			return err
		}
		if !ok {
			return errNotFound("customer", customerKey(w, dist, cust))
		}
		if err := d.customer.Update(tx, custRID, func(rec []byte) error {
			customerAddBalance(rec, int64(total))
			customerAddDelivery(rec)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// StockLevel executes the TPC-C Stock-Level transaction (read-only): count
// the items of the district's last 20 orders whose stock is below a random
// threshold.
func (d *Database) StockLevel(tx *engine.Tx, rng *rand.Rand, w int) error {
	cfg := d.cfg
	dist := randInt(rng, 1, cfg.DistrictsPerWarehouse)
	threshold := randInt(rng, 10, 20)

	var nextOrder int
	if err := d.district.Get(tx, d.districtRID[districtKey(w, dist)], func(rec []byte) error {
		nextOrder = districtNextOrder(rec)
		return nil
	}); err != nil {
		return err
	}
	first := nextOrder - 20
	if first < 1 {
		first = 1
	}
	if first >= nextOrder {
		return nil
	}
	// The lines of the last 20 orders, with one scan of the order-line
	// index, as the specification's join does: no ORDER row is read.
	var lines [20 * orderLineMax]page.RID
	n, err := d.orderLineRIDs(tx, w, dist, first, nextOrder-1, lines[:])
	if err != nil {
		return err
	}
	var seen itemSet
	low := 0
	for _, rid := range lines[:n] {
		var item int
		if err := d.orderLine.Get(tx, rid, func(rec []byte) error {
			item = orderLineItem(rec)
			return nil
		}); err != nil {
			return err
		}
		if !seen.add(item) {
			continue
		}
		stockRID, ok, err := d.stockIdx.Get(tx, stockKey(w, item))
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := d.stock.Get(tx, stockRID, func(rec []byte) error {
			if stockQuantity(rec) < threshold {
				low++
			}
			return nil
		}); err != nil {
			return err
		}
	}
	_ = low
	return nil
}

// itemSet is a set of the items of Stock-Level's order lines, at most
// 20*orderLineMax of them, kept open addressed so that it allocates
// nothing.  Item ids are positive.
type itemSet [512]int32

// add adds item to the set and reports whether it was not there yet.
func (s *itemSet) add(item int) bool {
	for i := uint(item) * 0x9E3779B1 % uint(len(s)); ; i = (i + 1) % uint(len(s)) {
		switch s[i] {
		case int32(item):
			return false
		case 0:
			s[i] = int32(item)
			return true
		}
	}
}
