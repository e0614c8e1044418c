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

// TestInsertLogVolume: inserting an n-byte row logs its bytes (and the free
// space they replace), a slot and a few header bytes — not the page.
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
			if tbl.NumPages() == pages && logged > 2*n+150 {
				t.Errorf("inserting a %d-byte row logged %d bytes, want at most %d", n, logged, 2*n+150)
			}
		}
	}
}
