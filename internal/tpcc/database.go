package tpcc

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/reprolab/face/internal/btree"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/heap"
	"github.com/reprolab/face/internal/page"
)

// Database holds the TPC-C tables and indexes.  It does not hold a
// reference to the engine: every operation takes a transaction, so the same
// Database value can be reused after the engine is crashed and reopened (the
// catalog is the workload driver's in-memory state, as described in
// DESIGN.md).
type Database struct {
	cfg Config

	warehouse *heap.Table
	district  *heap.Table
	customer  *heap.Table
	history   *heap.Table
	order     *heap.Table
	newOrder  *heap.Table
	orderLine *heap.Table
	item      *heap.Table
	stock     *heap.Table

	// Direct RIDs for the tiny warehouse and district tables.
	warehouseRID map[int]page.RID
	districtRID  map[uint64]page.RID

	customerIdx  *btree.Tree
	itemIdx      *btree.Tree
	stockIdx     *btree.Tree
	orderIdx     *btree.Tree
	newOrderIdx  *btree.Tree
	orderLineIdx *btree.Tree
	custOrderIdx *btree.Tree

	// nextOrderHint mirrors the districts' next order ids so the loader
	// and driver can allocate order numbers without extra reads.
	nextOrderHint map[uint64]int
}

// Config returns the configuration the database was loaded with.
func (d *Database) Config() Config { return d.cfg }

// Load populates a freshly opened engine with the TPC-C schema and initial
// data.  It commits in chunks to bound transaction size, and finishes with
// a checkpoint so the loaded database is fully persistent.
func Load(eng *engine.DB, cfg Config) (*Database, error) {
	cfg.normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	db := &Database{
		cfg:           cfg,
		warehouseRID:  make(map[int]page.RID),
		districtRID:   make(map[uint64]page.RID),
		nextOrderHint: make(map[uint64]int),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	if err := db.createSchema(eng); err != nil {
		return nil, err
	}
	if err := db.loadItems(eng); err != nil {
		return nil, err
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		if err := db.loadWarehouse(eng, rng, w); err != nil {
			return nil, err
		}
	}
	if err := eng.Checkpoint(); err != nil {
		return nil, err
	}
	return db, nil
}

// inChunks runs fill in one Update transaction after another until fill
// reports that it is done, passing the number of transactions before this
// one.  fill carries on from where the previous transaction stopped, and
// returns after the row that ends its chunk.  It always runs once more
// after the chunk that ends on the last row, in a transaction that commits
// nothing but its commit record, as the loader always has: that record is
// part of the log whose volume the modelled clock charges.
func inChunks(eng *engine.DB, fill func(tx *engine.Tx, chunk int) (done bool, err error)) error {
	for chunk := 0; ; chunk++ {
		var done bool
		err := eng.Update(context.TODO(), func(tx *engine.Tx) (err error) {
			done, err = fill(tx, chunk)
			return err
		})
		if err != nil || done {
			return err
		}
	}
}

func (d *Database) createSchema(eng *engine.DB) error {
	err := eng.Update(context.TODO(), func(tx *engine.Tx) (err error) {
		create := func(name string) *heap.Table {
			if err != nil {
				return nil
			}
			var t *heap.Table
			t, err = heap.Create(tx, name)
			return t
		}
		index := func(name string) *btree.Tree {
			if err != nil {
				return nil
			}
			var t *btree.Tree
			t, err = btree.Create(tx, name)
			return t
		}
		d.warehouse = create("warehouse")
		d.district = create("district")
		d.customer = create("customer")
		d.history = create("history")
		d.order = create("orders")
		d.newOrder = create("new_order")
		d.orderLine = create("order_line")
		d.item = create("item")
		d.stock = create("stock")
		d.customerIdx = index("customer_pk")
		d.itemIdx = index("item_pk")
		d.stockIdx = index("stock_pk")
		d.orderIdx = index("orders_pk")
		d.newOrderIdx = index("new_order_pk")
		d.orderLineIdx = index("order_line_pk")
		d.custOrderIdx = index("orders_by_customer")
		return err
	})
	if err != nil {
		return fmt.Errorf("tpcc: creating schema: %w", err)
	}
	return nil
}

// loadItems loads the items, 2 000 to a transaction.
func (d *Database) loadItems(eng *engine.DB) error {
	next := 1
	return inChunks(eng, func(tx *engine.Tx, _ int) (bool, error) {
		for next <= d.cfg.Items {
			i := next
			next++
			rid, err := d.item.Insert(tx, newItemRec(i))
			if err != nil {
				return false, fmt.Errorf("tpcc: loading item %d: %w", i, err)
			}
			if err := d.itemIdx.Insert(tx, itemKey(i), rid); err != nil {
				return false, err
			}
			if i%2000 == 0 {
				return false, nil
			}
		}
		return true, nil
	})
}

// loadWarehouse loads warehouse w and its stock, 2 000 stock rows to a
// transaction, then its districts.
func (d *Database) loadWarehouse(eng *engine.DB, rng *rand.Rand, w int) error {
	next := 1
	err := inChunks(eng, func(tx *engine.Tx, chunk int) (bool, error) {
		if chunk == 0 {
			rid, err := d.warehouse.Insert(tx, newWarehouseRec(w))
			if err != nil {
				return false, err
			}
			d.warehouseRID[w] = rid
		}
		// Stock: one row per item.
		for next <= d.cfg.Items {
			i := next
			next++
			rid, err := d.stock.Insert(tx, newStockRec(i))
			if err != nil {
				return false, fmt.Errorf("tpcc: loading stock (%d,%d): %w", w, i, err)
			}
			if err := d.stockIdx.Insert(tx, stockKey(w, i), rid); err != nil {
				return false, err
			}
			if i%2000 == 0 {
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}

	for dI := 1; dI <= d.cfg.DistrictsPerWarehouse; dI++ {
		if err := d.loadDistrict(eng, rng, w, dI); err != nil {
			return err
		}
	}
	return nil
}

// loadDistrict loads district dist of warehouse w: its customers, 500 to a
// transaction, and then its initial orders, 200 to a transaction, the
// first of them in the transaction of the last customers.
func (d *Database) loadDistrict(eng *engine.DB, rng *rand.Rand, w, dist int) error {
	cfg := d.cfg
	firstFree := cfg.InitialOrdersPerDistrict + 1
	dk := districtKey(w, dist)
	nextCustomer, nextOrder := 1, 1
	var perm []int
	return inChunks(eng, func(tx *engine.Tx, chunk int) (bool, error) {
		if chunk == 0 {
			rid, err := d.district.Insert(tx, newDistrictRec(dist, firstFree))
			if err != nil {
				return false, err
			}
			d.districtRID[dk] = rid
			d.nextOrderHint[dk] = firstFree
		}

		// Customers.
		for nextCustomer <= cfg.CustomersPerDistrict {
			c := nextCustomer
			nextCustomer++
			rid, err := d.customer.Insert(tx, newCustomerRec(c))
			if err != nil {
				return false, fmt.Errorf("tpcc: loading customer (%d,%d,%d): %w", w, dist, c, err)
			}
			if err := d.customerIdx.Insert(tx, customerKey(w, dist, c), rid); err != nil {
				return false, err
			}
			// History row for the initial payment.
			if _, err := d.history.Insert(tx, newHistoryRec(w, dist, c, 1000)); err != nil {
				return false, err
			}
			if c%500 == 0 {
				return false, nil
			}
		}

		// Initial orders: one per customer (permuted), the most recent
		// third still undelivered (rows in NEW-ORDER), as in the
		// specification.
		if perm == nil {
			perm = rng.Perm(cfg.CustomersPerDistrict)
		}
		for nextOrder <= cfg.InitialOrdersPerDistrict {
			o := nextOrder
			nextOrder++
			c := perm[(o-1)%len(perm)] + 1
			lines := randInt(rng, 5, 15)
			orid, err := d.order.Insert(tx, newOrderRec(c, lines, o))
			if err != nil {
				return false, err
			}
			if err := d.orderIdx.Insert(tx, orderKey(w, dist, o), orid); err != nil {
				return false, err
			}
			if err := d.custOrderIdx.Insert(tx, customerOrderKey(w, dist, c, o), orid); err != nil {
				return false, err
			}
			var ols orderLines
			for ol := 1; ol <= lines; ol++ {
				item := randItem(rng, cfg.Items)
				ols.add(orderLineKey(w, dist, o, ol), item, randInt(rng, 1, 10), uint64(randInt(rng, 10, 9999)))
			}
			if err := d.insertOrderLines(tx, &ols); err != nil {
				return false, err
			}
			if o > cfg.InitialOrdersPerDistrict*2/3 {
				norid, err := d.newOrder.Insert(tx, newNewOrderRec(o))
				if err != nil {
					return false, err
				}
				if err := d.newOrderIdx.Insert(tx, orderKey(w, dist, o), norid); err != nil {
					return false, err
				}
			}
			if o%200 == 0 {
				return false, nil
			}
		}
		return true, nil
	})
}

// orderLines collects the lines of one order, at most orderLineMax, for
// insertOrderLines: in arrays, so that collecting them allocates nothing.
type orderLines struct {
	n    int
	recs [orderLineMax][orderLineRecSize]byte
	keys [orderLineMax]uint64
	rids [orderLineMax]page.RID
}

// add appends the line of key.
func (l *orderLines) add(key uint64, item, quantity int, amount uint64) {
	putOrderLineRec(l.recs[l.n][:], item, quantity, amount)
	l.keys[l.n] = key
	l.n++
}

// insertOrderLines inserts the collected lines of an order into the
// ORDER-LINE table and its index with one log record per page changed:
// the table's tail page, usually, and the index leaf of the order.  It
// goes a table page at a time, each page's index entries after it, so a
// page the table grows by is allocated after the index splits of the
// lines before it, as when the lines go in one by one: the pages are
// where those calls would put them, down to their ids.
func (d *Database) insertOrderLines(tx *engine.Tx, l *orderLines) error {
	var recs [orderLineMax][]byte
	for i := range l.n {
		recs[i] = l.recs[i][:]
	}
	for done := 0; done < l.n; {
		n, err := d.orderLine.InsertMany(tx, recs[done:l.n], l.rids[done:])
		if err != nil {
			return err
		}
		if err := d.orderLineIdx.InsertRun(tx, l.keys[done:done+n], l.rids[done:done+n]); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// Tables returns the names and page counts of all tables (diagnostics).
func (d *Database) Tables() map[string]int {
	return map[string]int{
		"warehouse":  d.warehouse.NumPages(),
		"district":   d.district.NumPages(),
		"customer":   d.customer.NumPages(),
		"history":    d.history.NumPages(),
		"orders":     d.order.NumPages(),
		"new_order":  d.newOrder.NumPages(),
		"order_line": d.orderLine.NumPages(),
		"item":       d.item.NumPages(),
		"stock":      d.stock.NumPages(),
	}
}

// Clone returns an independent copy of the catalog (table page lists,
// index roots, direct RIDs).  The benchmark harness pairs a cloned catalog
// with a cloned device image so that every experiment configuration starts
// from the same freshly loaded database without reloading it.
func (d *Database) Clone() *Database {
	cp := &Database{
		cfg:           d.cfg,
		warehouse:     heap.Attach(d.warehouse.Name(), d.warehouse.Pages()),
		district:      heap.Attach(d.district.Name(), d.district.Pages()),
		customer:      heap.Attach(d.customer.Name(), d.customer.Pages()),
		history:       heap.Attach(d.history.Name(), d.history.Pages()),
		order:         heap.Attach(d.order.Name(), d.order.Pages()),
		newOrder:      heap.Attach(d.newOrder.Name(), d.newOrder.Pages()),
		orderLine:     heap.Attach(d.orderLine.Name(), d.orderLine.Pages()),
		item:          heap.Attach(d.item.Name(), d.item.Pages()),
		stock:         heap.Attach(d.stock.Name(), d.stock.Pages()),
		customerIdx:   btree.Attach(d.customerIdx.Name(), d.customerIdx.Root()),
		itemIdx:       btree.Attach(d.itemIdx.Name(), d.itemIdx.Root()),
		stockIdx:      btree.Attach(d.stockIdx.Name(), d.stockIdx.Root()),
		orderIdx:      btree.Attach(d.orderIdx.Name(), d.orderIdx.Root()),
		newOrderIdx:   btree.Attach(d.newOrderIdx.Name(), d.newOrderIdx.Root()),
		orderLineIdx:  btree.Attach(d.orderLineIdx.Name(), d.orderLineIdx.Root()),
		custOrderIdx:  btree.Attach(d.custOrderIdx.Name(), d.custOrderIdx.Root()),
		warehouseRID:  make(map[int]page.RID, len(d.warehouseRID)),
		districtRID:   make(map[uint64]page.RID, len(d.districtRID)),
		nextOrderHint: make(map[uint64]int, len(d.nextOrderHint)),
	}
	for k, v := range d.warehouseRID {
		cp.warehouseRID[k] = v
	}
	for k, v := range d.districtRID {
		cp.districtRID[k] = v
	}
	for k, v := range d.nextOrderHint {
		cp.nextOrderHint[k] = v
	}
	return cp
}
