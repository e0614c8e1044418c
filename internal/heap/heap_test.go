package heap

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

func testDB(t *testing.T) *engine.DB {
	t.Helper()
	cfg := engine.Config{
		DataDev:     device.New("data", device.ProfileCheetah15K, 8192),
		LogDev:      device.New("log", device.ProfileCheetah15K, 8192),
		BufferPages: 64,
		Policy:      engine.PolicyNone,
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// update runs fn in one Update transaction and fails t unless it commits.
func update(t *testing.T, db *engine.DB, fn func(tx *engine.Tx) error) {
	t.Helper()
	if err := db.Update(context.Background(), fn); err != nil {
		t.Fatal(err)
	}
}

func rec(v uint64, size int) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestInsertGetUpdateDelete(t *testing.T) {
	db := testDB(t)
	update(t, db, func(tx *engine.Tx) error {
		tbl, err := Create(tx, "customer")
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Name() != "customer" || tbl.NumPages() != 1 {
			t.Fatalf("new table: %s, %d pages", tbl.Name(), tbl.NumPages())
		}

		rid, err := tbl.Insert(tx, rec(42, 64))
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		if err := tbl.Get(tx, rid, func(r []byte) error {
			got = binary.LittleEndian.Uint64(r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != 42 {
			t.Fatalf("Get = %d", got)
		}

		if err := tbl.Update(tx, rid, func(r []byte) error {
			binary.LittleEndian.PutUint64(r, 77)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		tbl.Get(tx, rid, func(r []byte) error {
			got = binary.LittleEndian.Uint64(r)
			return nil
		})
		if got != 77 {
			t.Fatalf("after Update = %d", got)
		}

		if err := tbl.Delete(tx, rid); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Get(tx, rid, func([]byte) error { return nil }); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get after Delete: %v", err)
		}
		if err := tbl.Delete(tx, rid); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double Delete: %v", err)
		}
		return nil
	})
}

func TestInsertGrowsTable(t *testing.T) {
	db := testDB(t)
	update(t, db, func(tx *engine.Tx) error {
		tbl, _ := Create(tx, "stock")
		const n = 500
		rids := make([]page.RID, n)
		for i := 0; i < n; i++ {
			rid, err := tbl.Insert(tx, rec(uint64(i), 200))
			if err != nil {
				t.Fatal(err)
			}
			rids[i] = rid
		}
		if tbl.NumPages() < 20 {
			t.Fatalf("table should have grown, has %d pages", tbl.NumPages())
		}
		for i, rid := range rids {
			var got uint64
			if err := tbl.Get(tx, rid, func(r []byte) error {
				got = binary.LittleEndian.Uint64(r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != uint64(i) {
				t.Fatalf("record %d = %d", i, got)
			}
		}
		return nil
	})
}

func TestScan(t *testing.T) {
	db := testDB(t)
	update(t, db, func(tx *engine.Tx) error {
		tbl, _ := Create(tx, "orders")
		const n = 100
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(tx, rec(uint64(i), 100)); err != nil {
				t.Fatal(err)
			}
		}
		// Delete every third record.
		deleted := 0
		if err := tbl.Scan(tx, func(rid page.RID, r []byte) error {
			if binary.LittleEndian.Uint64(r)%3 == 0 {
				deleted++
				return tbl.Delete(tx, rid)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Count the survivors.
		count := 0
		if err := tbl.Scan(tx, func(rid page.RID, r []byte) error {
			count++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != n-deleted {
			t.Fatalf("scan found %d records, want %d", count, n-deleted)
		}
		// Early stop.
		seen := 0
		if err := tbl.Scan(tx, func(page.RID, []byte) error {
			seen++
			if seen == 5 {
				return ErrStopScan
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if seen != 5 {
			t.Fatalf("early stop visited %d records", seen)
		}
		// Propagated error.
		boom := fmt.Errorf("boom")
		if err := tbl.Scan(tx, func(page.RID, []byte) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("scan error: %v", err)
		}
		return nil
	})
}

func TestInsertTooLarge(t *testing.T) {
	db := testDB(t)
	update(t, db, func(tx *engine.Tx) error {
		tbl, _ := Create(tx, "big")
		if _, err := tbl.Insert(tx, make([]byte, page.PayloadSize)); !errors.Is(err, page.ErrTooLarge) {
			t.Fatalf("oversized insert: %v", err)
		}
		return nil
	})
}

func TestAttach(t *testing.T) {
	db := testDB(t)
	var tbl *Table
	var rid page.RID
	update(t, db, func(tx *engine.Tx) error {
		tbl, _ = Create(tx, "district")
		rid, _ = tbl.Insert(tx, rec(9, 32))
		return nil
	})

	re := Attach("district", tbl.Pages())
	var got uint64
	update(t, db, func(tx2 *engine.Tx) error {
		return re.Get(tx2, rid, func(r []byte) error {
			got = binary.LittleEndian.Uint64(r)
			return nil
		})
	})
	if got != 9 {
		t.Fatalf("Attach Get = %d", got)
	}
	// Pages() returns a copy.
	pages := tbl.Pages()
	pages[0] = 9999
	if tbl.Pages()[0] == 9999 {
		t.Fatal("Pages leaked internal slice")
	}
}

// TestInsertLogVolume: inserting an n-byte row logs its bytes once, its
// slot and the record and commit headers — not the free space the row
// replaces, nor the page.
func TestInsertLogVolume(t *testing.T) {
	db := testDB(t)
	var tbl *Table
	update(t, db, func(tx *engine.Tx) (err error) {
		tbl, err = Create(tx, "orders")
		return err
	})
	for _, n := range []int{24, 100, 650} {
		for i := 0; i < 3; i++ {
			row := make([]byte, n)
			for j := range row {
				row[j] = byte(j*13 + i + 1)
			}
			pages := tbl.NumPages()
			var mark page.LSN
			update(t, db, func(tx *engine.Tx) error {
				mark = db.Log().Next()
				_, err := tbl.Insert(tx, row)
				return err
			})
			logged := int(db.Log().Next() - mark)
			if tbl.NumPages() == pages && logged > n+100 {
				t.Errorf("inserting a %d-byte row logged %d bytes, want at most %d", n, logged, n+100)
			}
		}
	}
}

// images returns the image of every allocated page of db, its LSN cleared:
// a set operation logs fewer records than the calls it stands for, so the
// LSNs it stamps differ, and nothing else may.
func images(t *testing.T, db *engine.DB) []page.Buf {
	t.Helper()
	var out []page.Buf
	if err := db.View(context.Background(), func(tx *engine.Tx) error {
		for id := page.ID(1); int64(id) <= db.NumPages(); id++ {
			if err := tx.Read(id, func(buf page.Buf) error {
				img := buf.Clone()
				img.SetLSN(0)
				out = append(out, img)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameImages fails t unless the two databases hold the same pages, LSNs
// aside.
func sameImages(t *testing.T, a, b *engine.DB) {
	t.Helper()
	ia, ib := images(t, a), images(t, b)
	if len(ia) != len(ib) {
		t.Fatalf("%d pages against %d", len(ia), len(ib))
	}
	for i := range ia {
		if string(ia[i]) != string(ib[i]) {
			t.Fatalf("page %d differs", i+1)
		}
	}
}

// runs returns the number of runs of RIDs on one page in rids.
func runs(rids []page.RID) int {
	n := 0
	for i, rid := range rids {
		if i == 0 || rid.Page != rids[i-1].Page {
			n++
		}
	}
	return n
}

// appends returns the number of records db has logged.
func appends(db *engine.DB) int64 { return db.Snapshot().Wal.Appends }

// TestSetOperationsMatchRowCalls: InsertMany and UpdateEach leave the page
// images, the RIDs and the table's page list that Insert and Update called
// row by row leave, with one update record per page.  The rows cross full
// pages, so sets of them need a second call of InsertMany, which grows the
// table, and the updates come in runs on one page, across pages and back
// to an earlier page.
func TestSetOperationsMatchRowCalls(t *testing.T) {
	const rows = 150
	row := func(i int) []byte { return rec(uint64(i), 40+i%5*20) }
	var rids [2][rows]page.RID
	var tables [2]*Table
	dbs := [2]*engine.DB{testDB(t), testDB(t)}
	for k, db := range dbs {
		update(t, db, func(tx *engine.Tx) (err error) {
			tables[k], err = Create(tx, "order_line")
			if err != nil {
				return err
			}
			_, err = tables[k].Insert(tx, rec(99, 3000))
			return err
		})
	}
	// Row by row.
	update(t, dbs[0], func(tx *engine.Tx) error {
		for i := range rows {
			rid, err := tables[0].Insert(tx, row(i))
			if err != nil {
				return err
			}
			rids[0][i] = rid
		}
		return nil
	})
	// In sets of 7, and then the rest in one.
	var calls [][2]int
	for i := 0; i < 70; i += 7 {
		calls = append(calls, [2]int{i, i + 7})
	}
	calls = append(calls, [2]int{70, rows})
	before := appends(dbs[1])
	update(t, dbs[1], func(tx *engine.Tx) error {
		recs := make([][]byte, rows)
		for i := range recs {
			recs[i] = row(i)
		}
		for _, c := range calls {
			for i := c[0]; i < c[1]; {
				n, err := tables[1].InsertMany(tx, recs[i:c[1]], rids[1][i:])
				if err != nil {
					return err
				}
				if n == 0 {
					return fmt.Errorf("InsertMany of %d records appended none", c[1]-i)
				}
				i += n
			}
		}
		return nil
	})
	if rids[0] != rids[1] {
		t.Fatal("InsertMany put the rows in other slots than Insert")
	}
	pages := tables[1].Pages()
	if fmt.Sprint(tables[0].Pages()) != fmt.Sprint(pages) || len(pages) < 3 {
		t.Fatalf("pages %v against %v, want three or more", tables[0].Pages(), pages)
	}
	// A record per page each set touched, one per new page's format and
	// the commit.
	want := int64(len(pages) - 1 + 1)
	for _, c := range calls {
		want += int64(runs(rids[1][c[0]:c[1]]))
	}
	if n := appends(dbs[1]) - before; n != want {
		t.Errorf("InsertMany logged %d records, want %d", n, want)
	}
	sameImages(t, dbs[0], dbs[1])

	order := make([]page.RID, 0, rows+20)
	order = append(order, rids[0][:]...)
	order = append(order, rids[0][:20]...)
	bump := func(i int, r []byte) error {
		binary.LittleEndian.PutUint64(r[8:], binary.LittleEndian.Uint64(r[8:])+uint64(i)+1)
		return nil
	}
	update(t, dbs[0], func(tx *engine.Tx) error {
		for i, rid := range order {
			if err := tables[0].Update(tx, rid, func(r []byte) error { return bump(i, r) }); err != nil {
				return err
			}
		}
		return nil
	})
	before = appends(dbs[1])
	update(t, dbs[1], func(tx *engine.Tx) error {
		return tables[1].UpdateEach(tx, order, bump)
	})
	if n, want := appends(dbs[1])-before, int64(runs(order)+1); n != want {
		t.Errorf("UpdateEach logged %d records, want %d", n, want)
	}
	sameImages(t, dbs[0], dbs[1])
}

// TestUpdateEachOfAMissingRecord: a RID with no record fails UpdateEach with
// ErrNotFound, and the records of its run stay as they were.
func TestUpdateEachOfAMissingRecord(t *testing.T) {
	db := testDB(t)
	var tbl *Table
	var rids [3]page.RID
	update(t, db, func(tx *engine.Tx) (err error) {
		if tbl, err = Create(tx, "t"); err != nil {
			return err
		}
		_, err = tbl.InsertMany(tx, [][]byte{rec(1, 32), rec(2, 32)}, rids[:])
		return err
	})
	rids[2] = page.RID{Page: rids[0].Page, Slot: 9}
	err := db.Update(context.Background(), func(tx *engine.Tx) error {
		err := tbl.UpdateEach(tx, rids[:], func(i int, r []byte) error {
			r[0] = 0xFF
			return nil
		})
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("UpdateEach with a missing slot: %v, want ErrNotFound", err)
		}
		return tbl.Get(tx, rids[0], func(r []byte) error {
			if r[0] == 0xFF {
				return fmt.Errorf("the run's first record was changed")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortedGrowthLeavesNoRows: an InsertMany that grows the table and
// rolls back leaves no row that Scan returns, at runtime and after a crash.
// The page it added stays in the catalog, which Scan reads, so its rows
// must be undone: a heap page takes Alloc and an Edit, not a fill that
// undo never reaches.
func TestAbortedGrowthLeavesNoRows(t *testing.T) {
	cfg := engine.Config{
		DataDev:     device.New("data", device.ProfileCheetah15K, 8192),
		LogDev:      device.New("log", device.ProfileCheetah15K, 8192),
		BufferPages: 64,
		Policy:      engine.PolicyNone,
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tbl *Table
	update(t, db, func(tx *engine.Tx) (err error) {
		if tbl, err = Create(tx, "rows"); err != nil {
			return err
		}
		_, err = tbl.InsertMany(tx, [][]byte{rec(1, 100), rec(2, 100)}, make([]page.RID, 2))
		return err
	})
	rolledBack := errors.New("rolled back")
	if err := db.Update(context.Background(), func(tx *engine.Tx) error {
		recs := make([][]byte, 100)
		for i := range recs {
			recs[i] = rec(uint64(100+i), 200)
		}
		rids := make([]page.RID, len(recs))
		for i := 0; i < len(recs); {
			n, err := tbl.InsertMany(tx, recs[i:], rids[i:])
			if err != nil {
				return err
			}
			i += n
		}
		if n := tbl.NumPages(); n < 3 {
			return fmt.Errorf("the rows took %d pages", n)
		}
		return rolledBack
	}); !errors.Is(err, rolledBack) {
		t.Fatalf("the transaction: %v", err)
	}
	rows := func(when string, db *engine.DB, tbl *Table) {
		t.Helper()
		var got []uint64
		if err := db.View(context.Background(), func(tx *engine.Tx) error {
			return tbl.Scan(tx, func(_ page.RID, r []byte) error {
				got = append(got, binary.LittleEndian.Uint64(r))
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[1 2]" {
			t.Fatalf("%s: Scan returns rows %v, want [1 2]", when, got)
		}
	}
	rows("after the rollback", db, tbl)
	if err := db.Log().ForceAll(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	cfg.Recover = true
	db2, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows("after the crash", db2, Attach("rows", tbl.Pages()))
}
