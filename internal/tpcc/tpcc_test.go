package tpcc

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// tinyConfig is small enough for fast unit tests while still exercising
// every table and transaction.
func tinyConfig() Config {
	return Config{
		Warehouses:               2,
		DistrictsPerWarehouse:    3,
		CustomersPerDistrict:     40,
		Items:                    100,
		InitialOrdersPerDistrict: 30,
		Seed:                     7,
	}
}

func newEngine(t *testing.T, policy engine.CachePolicy) *engine.DB {
	t.Helper()
	cfg := engine.Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 4, 32768),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<16),
		BufferPages: 64,
		Policy:      policy,
	}
	if policy.UsesFlash() {
		cfg.FlashDev = device.New("flash", device.ProfileSamsung470, 4096)
		cfg.FlashFrames = 1024
		cfg.GroupSize = 16
		cfg.SegmentEntries = 128
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestNURandDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 1000
	const draws = 20000
	counts := make(map[int]int)
	for i := 0; i < draws; i++ {
		v := randCustomer(rng, n)
		if v < 1 || v > n {
			t.Fatalf("randCustomer out of range: %d", v)
		}
		counts[v]++
	}
	// The skew must make some values far more popular than the uniform
	// expectation (draws/n = 20).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*draws/n {
		t.Fatalf("NURand produced no hot values: max frequency %d", max)
	}
	for i := 0; i < 1000; i++ {
		if v := randItem(rng, 50); v < 1 || v > 50 {
			t.Fatalf("randItem out of range: %d", v)
		}
		if v := randInt(rng, 5, 5); v != 5 {
			t.Fatalf("randInt degenerate range: %d", v)
		}
	}
}

func TestKeyEncodingsAreUnique(t *testing.T) {
	seen := map[uint64]string{}
	check := func(name string, k uint64) {
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision between %s and %s (key %d)", name, prev, k)
		}
		seen[k] = name
	}
	for w := 1; w <= 3; w++ {
		for d := 1; d <= 3; d++ {
			check("district", districtKey(w, d))
			for c := 1; c <= 5; c++ {
				check("customer", customerKey(w, d, c))
			}
			for o := 1; o <= 5; o++ {
				check("order", orderKey(w, d, o))
				for ol := 1; ol <= 3; ol++ {
					check("orderline", orderLineKey(w, d, o, ol))
				}
			}
		}
		for i := 1; i <= 5; i++ {
			check("stock", stockKey(w, i))
		}
	}
}

func TestRecordAccessors(t *testing.T) {
	w := newWarehouseRec(3)
	warehouseAddYTD(w, 500)
	if warehouseYTD(w) != 500 {
		t.Fatal("warehouse ytd")
	}
	d := newDistrictRec(2, 31)
	if districtNextOrder(d) != 31 {
		t.Fatal("district next order")
	}
	districtSetNextOrder(d, 32)
	districtAddYTD(d, 9)
	if districtNextOrder(d) != 32 || districtYTD(d) != 9 {
		t.Fatal("district accessors")
	}
	c := newCustomerRec(1)
	if customerBalance(c) != -10 {
		t.Fatalf("initial balance = %d", customerBalance(c))
	}
	customerAddBalance(c, -90)
	customerAddPayment(c, 90)
	customerAddDelivery(c)
	if customerBalance(c) != -100 {
		t.Fatalf("balance after payment = %d", customerBalance(c))
	}
	o := newOrderRec(7, 9, 123)
	if orderCustomer(o) != 7 || orderLineCount(o) != 9 || orderCarrier(o) != 0 {
		t.Fatal("order accessors")
	}
	orderSetCarrier(o, 4)
	if orderCarrier(o) != 4 {
		t.Fatal("order carrier")
	}
	ol := make([]byte, orderLineRecSize)
	putOrderLineRec(ol, 55, 3, 200)
	if orderLineItem(ol) != 55 || orderLineAmount(ol) != 200 {
		t.Fatal("order line accessors")
	}
	orderLineSetDeliveryDate(ol, 9)
	s := newStockRec(5)
	q := stockQuantity(s)
	stockSetQuantity(s, q-1)
	stockAddOrder(s, 3, true)
	if stockQuantity(s) != q-1 {
		t.Fatal("stock quantity")
	}
	i := newItemRec(12)
	if itemPrice(i) == 0 {
		t.Fatal("item price")
	}
	if len(newHistoryRec(1, 2, 3, 4)) != historyRecSize || len(newNewOrderRec(1)) != newOrderRecSize {
		t.Fatal("record sizes")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}
	c.normalize()
	if c.Warehouses != 1 || c.DistrictsPerWarehouse != 10 || c.Seed == 0 {
		t.Fatalf("normalize: %+v", c)
	}
	if err := (Config{Warehouses: 0}).Validate(); err == nil {
		t.Fatal("zero warehouses validated")
	}
	def := DefaultConfig(0)
	if def.Warehouses != 1 || def.Items <= 0 {
		t.Fatalf("DefaultConfig: %+v", def)
	}
}

func TestLoadAndRunMix(t *testing.T) {
	eng := newEngine(t, engine.PolicyFaCEGSC)
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tables := db.Tables()
	for _, name := range []string{"warehouse", "district", "customer", "orders", "order_line", "item", "stock", "history", "new_order"} {
		if tables[name] < 1 {
			t.Fatalf("table %s has no pages: %v", name, tables)
		}
	}
	if db.Config().Warehouses != 2 {
		t.Fatal("config not retained")
	}

	dr := NewDriver(eng, db, 99)
	if err := dr.RunMany(300); err != nil {
		t.Fatal(err)
	}
	counts := dr.Counts()
	if counts.Total() < 290 {
		t.Fatalf("committed %d of 300 transactions", counts.Total())
	}
	if counts.NewOrders() == 0 || counts.Committed[KindPayment] == 0 {
		t.Fatalf("mix not exercised: %+v", counts)
	}
	// Each kind should have run at least once over 300 transactions.
	for k := KindNewOrder; k < numKinds; k++ {
		if counts.Committed[k] == 0 {
			t.Fatalf("kind %s never committed: %+v", k, counts)
		}
	}
	if eng.Committed() < counts.Total() {
		t.Fatal("engine commit counter lower than driver counter")
	}
	dr.ResetCounts()
	if dr.Counts().Total() != 0 {
		t.Fatal("ResetCounts failed")
	}
}

func TestEachTransactionKindExplicitly(t *testing.T) {
	eng := newEngine(t, engine.PolicyLC)
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(eng, db, 3)
	for k := KindNewOrder; k < numKinds; k++ {
		for i := 0; i < 10; i++ {
			if err := dr.Run(k); err != nil {
				t.Fatalf("%s run %d: %v", k, i, err)
			}
		}
	}
	if dr.Counts().Total() < 45 {
		t.Fatalf("committed %d of 50", dr.Counts().Total())
	}
}

// TestPaperPathTakesPageLocks: the loader and the single-stream driver the
// paper's experiments use run through the engine's scheduler, under page
// locks, and Run accounts for a New-Order rollback as RunTerminals does:
// one RolledBack, no commit, and the engine rolled the transaction back.
func TestPaperPathTakesPageLocks(t *testing.T) {
	eng := newEngine(t, engine.PolicyFaCEGSC)
	grants := func() int64 {
		l := eng.Snapshot().Locks
		return l.SharedGrants + l.ExclusiveGrants
	}
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	loaded := grants()
	if loaded == 0 {
		t.Fatal("Load took no page lock")
	}
	dr := NewDriver(eng, db, 5)
	if err := dr.RunMany(50); err != nil {
		t.Fatal(err)
	}
	if ran := grants(); ran <= loaded {
		t.Fatalf("RunMany(50) took no page lock: %d grants after Load, %d after", loaded, ran)
	}

	// About one New-Order in a hundred rolls back; the stream is fixed by
	// the seed, so this finds the same one every time.
	for i := 0; ; i++ {
		if i == 2000 {
			t.Fatal("2000 New-Orders without a rollback")
		}
		before, aborted := dr.Counts(), eng.Snapshot().Aborted
		if err := dr.Run(KindNewOrder); err != nil {
			t.Fatal(err)
		}
		after := dr.Counts()
		if after.RolledBack == before.RolledBack {
			if after.Committed[KindNewOrder] != before.Committed[KindNewOrder]+1 {
				t.Fatalf("a committed New-Order counted %d commits", after.Committed[KindNewOrder]-before.Committed[KindNewOrder])
			}
			continue
		}
		if got := after.RolledBack - before.RolledBack; got != 1 {
			t.Fatalf("one rollback counted %d times", got)
		}
		if after.Total() != before.Total() {
			t.Fatalf("a rollback counted %d commits", after.Total()-before.Total())
		}
		if got := eng.Snapshot().Aborted - aborted; got != 1 {
			t.Fatalf("a rollback aborted %d engine transactions, want 1", got)
		}
		return
	}
}

func TestWorkloadSurvivesCrashRecovery(t *testing.T) {
	dataDev := device.NewArray("data", device.ProfileCheetah15K, 4, 32768)
	logDev := device.New("log", device.ProfileCheetah15K, 1<<16)
	flashDev := device.New("flash", device.ProfileSamsung470, 4096)
	cfg := engine.Config{
		DataDev:        dataDev,
		LogDev:         logDev,
		FlashDev:       flashDev,
		BufferPages:    64,
		Policy:         engine.PolicyFaCEGSC,
		FlashFrames:    1024,
		GroupSize:      16,
		SegmentEntries: 128,
	}
	eng, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(eng, db, 5)
	if err := dr.RunMany(200); err != nil {
		t.Fatal(err)
	}
	eng.Crash()

	cfg.Recover = true
	eng2, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.RecoveryReport() == nil {
		t.Fatal("no recovery report")
	}
	// The same Database catalog keeps working against the recovered engine.
	dr2 := NewDriver(eng2, db, 6)
	if err := dr2.RunMany(100); err != nil {
		t.Fatalf("workload after recovery: %v", err)
	}
	if dr2.Counts().Total() < 95 {
		t.Fatalf("committed %d of 100 after recovery", dr2.Counts().Total())
	}
}

func TestKindString(t *testing.T) {
	seen := map[string]bool{}
	for k := KindNewOrder; k <= Kind(numKinds); k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("Kind(%d).String() = %q", k, s)
		}
		seen[s] = true
	}
	total := 0
	for _, pct := range Mix {
		total += pct
	}
	if total != 100 {
		t.Fatalf("mix percentages sum to %d", total)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	eng := newEngine(t, engine.PolicyNone)
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	clone := db.Clone()
	if clone.order.NumPages() != db.order.NumPages() {
		t.Fatal("clone catalog differs")
	}
	// Growing a table in the original must not affect the clone.
	dr := NewDriver(eng, db, 11)
	if err := dr.RunMany(100); err != nil {
		t.Fatal(err)
	}
	if db.order.NumPages() < clone.order.NumPages() {
		t.Fatal("original should have at least as many pages as the clone")
	}
	if clone.Config().Warehouses != db.Config().Warehouses {
		t.Fatal("clone config mismatch")
	}
}

// TestOrderLineScanMatchesOrderRows: the one scan of the order-line index
// that Delivery, Order-Status and Stock-Level make finds exactly the lines
// they found with a lookup per line, lines 1 to the ORDER row's line count,
// for every order and for every district's last 20, after a run of the
// mix that delivered some orders and rolled some New-Orders back.
func TestOrderLineScanMatchesOrderRows(t *testing.T) {
	eng := newEngine(t, engine.PolicyFaCEGSC)
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(eng, db, 5)
	for i := 0; dr.Counts().Committed[KindDelivery] < 5 || dr.Counts().RolledBack == 0; i++ {
		if i == 5000 {
			t.Fatalf("5000 transactions of the mix delivered too little or rolled nothing back: %+v", dr.Counts())
		}
		if _, err := dr.RunOne(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := db.Config()
	err = eng.View(context.Background(), func(tx *engine.Tx) error {
		for w := 1; w <= cfg.Warehouses; w++ {
			for dist := 1; dist <= cfg.DistrictsPerWarehouse; dist++ {
				var next int
				if err := db.district.Get(tx, db.districtRID[districtKey(w, dist)], func(rec []byte) error {
					next = districtNextOrder(rec)
					return nil
				}); err != nil {
					return err
				}
				// byLookup returns the RIDs of the lines of order o as the
				// transactions found them before the scan.
				byLookup := func(o int) ([]page.RID, error) {
					ordRID, ok, err := db.orderIdx.Get(tx, orderKey(w, dist, o))
					if err != nil || !ok {
						return nil, err
					}
					var lines int
					if err := db.order.Get(tx, ordRID, func(rec []byte) error {
						lines = orderLineCount(rec)
						return nil
					}); err != nil {
						return nil, err
					}
					var rids []page.RID
					for ol := 1; ol <= lines; ol++ {
						rid, ok, err := db.orderLineIdx.Get(tx, orderLineKey(w, dist, o, ol))
						if err != nil {
							return nil, err
						}
						if ok {
							rids = append(rids, rid)
						}
					}
					return rids, nil
				}
				var last20 []page.RID
				for o := 1; o < next; o++ {
					want, err := byLookup(o)
					if err != nil {
						return err
					}
					var got [orderLineMax]page.RID
					n, err := db.orderLineRIDs(tx, w, dist, o, o, got[:])
					if err != nil {
						return err
					}
					if !slices.Equal(got[:n], want) {
						return fmt.Errorf("order (%d, %d, %d): the scan found %v, the lookups %v", w, dist, o, got[:n], want)
					}
					if o >= next-20 {
						last20 = append(last20, want...)
					}
				}
				var got [20 * orderLineMax]page.RID
				n, err := db.orderLineRIDs(tx, w, dist, max(next-20, 1), next-1, got[:])
				if err != nil {
					return err
				}
				if !slices.Equal(got[:n], last20) {
					return fmt.Errorf("district (%d, %d): the scan of the last 20 orders found %d lines, the lookups %d", w, dist, n, len(last20))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestItemSetMatchesMap: Stock-Level's item set finds new what a map finds
// new, for as many items as its order lines can name, from item ranges
// small and large.
func TestItemSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, items := range []int{10, 300, 100000} {
		for range 50 {
			var set itemSet
			seen := make(map[int]bool)
			for range 20 * orderLineMax {
				item := 1 + rng.Intn(items)
				if got, want := set.add(item), !seen[item]; got != want {
					t.Fatalf("%d items: add(%d) = %v, want %v", items, item, got, want)
				}
				seen[item] = true
			}
		}
	}
}
