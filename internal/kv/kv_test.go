package kv

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

func openMem(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(memConfig())
	if err != nil {
		t.Fatalf("engine.Open: %v", err)
	}
	return db
}

func mustStore(t *testing.T, db *engine.DB) *Store {
	t.Helper()
	s, err := Open(context.Background(), db)
	if err != nil {
		t.Fatalf("kv.Open: %v", err)
	}
	return s
}

func set(t *testing.T, db *engine.DB, ns *Namespace, key uint64, val []byte) {
	t.Helper()
	err := db.Update(context.Background(), func(tx *engine.Tx) error {
		return ns.Set(tx, nil, key, val)
	})
	if err != nil {
		t.Fatalf("Set(%d): %v", key, err)
	}
}

func get(t *testing.T, db *engine.DB, ns *Namespace, key uint64) ([]byte, bool) {
	t.Helper()
	var val []byte
	var found bool
	err := db.View(context.Background(), func(tx *engine.Tx) error {
		var err error
		val, found, err = ns.Get(tx, key)
		return err
	})
	if err != nil {
		t.Fatalf("Get(%d): %v", key, err)
	}
	return val, found
}

func TestKVCreateSetGetDelete(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	s := mustStore(t, db)

	ns, err := s.Create(context.Background(), "main")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Create is ensure-style: a second call returns the same namespace.
	again, err := s.Create(context.Background(), "main")
	if err != nil || again != ns {
		t.Fatalf("second Create: ns=%p again=%p err=%v", ns, again, err)
	}

	if _, err := s.Namespace("missing"); !errors.Is(err, ErrNoNamespace) {
		t.Fatalf("Namespace(missing) = %v, want ErrNoNamespace", err)
	}

	set(t, db, ns, 7, []byte("seven"))
	set(t, db, ns, 9, []byte("nine"))

	if val, ok := get(t, db, ns, 7); !ok || string(val) != "seven" {
		t.Fatalf("Get(7) = %q, %v", val, ok)
	}
	if _, ok := get(t, db, ns, 8); ok {
		t.Fatal("Get(8) found a value that was never set")
	}

	err = db.Update(context.Background(), func(tx *engine.Tx) error {
		existed, err := ns.Delete(tx, 7)
		if err != nil {
			return err
		}
		if !existed {
			return errors.New("Delete(7) reported missing")
		}
		existed, err = ns.Delete(tx, 7)
		if err != nil {
			return err
		}
		if existed {
			return errors.New("second Delete(7) reported existing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, db, ns, 7); ok {
		t.Fatal("Get(7) found a deleted key")
	}
	if val, ok := get(t, db, ns, 9); !ok || string(val) != "nine" {
		t.Fatalf("Get(9) after delete of 7 = %q, %v", val, ok)
	}
}

func TestKVInPlaceOverwriteDoesNotGrow(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	s := mustStore(t, db)
	ns, err := s.Create(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	for k := uint64(0); k < 16; k++ {
		set(t, db, ns, k, val)
	}
	before := db.NumPages()
	// Same-size and shrinking overwrites must reuse the cell in place,
	// and an overwrite growing back into a cell's old size too: none may
	// split the leaf.
	for i := 0; i < 500; i++ {
		val[0] = byte(i)
		set(t, db, ns, uint64(i%16), val)
		set(t, db, ns, uint64(i%16), val[:32])
		set(t, db, ns, uint64(i%16), val)
	}
	if after := db.NumPages(); after != before {
		t.Fatalf("in-place overwrites grew the database from %d to %d pages", before, after)
	}
	// A growing overwrite still works (in a new cell).
	big := make([]byte, 128)
	big[0] = 0xAB
	set(t, db, ns, 3, big)
	if got, ok := get(t, db, ns, 3); !ok || !bytes.Equal(got, big) {
		t.Fatalf("Get(3) after growing overwrite = %d bytes, %v", len(got), ok)
	}
}

func TestKVValueTooLarge(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	s := mustStore(t, db)
	ns, err := s.Create(context.Background(), "big")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(context.Background(), func(tx *engine.Tx) error {
		return ns.Set(tx, nil, 1, make([]byte, MaxValueSize+1))
	})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Set = %v, want ErrTooLarge", err)
	}
	// The maximum size fits exactly.
	set(t, db, ns, 1, make([]byte, MaxValueSize))
	if val, ok := get(t, db, ns, 1); !ok || len(val) != MaxValueSize {
		t.Fatalf("Get after max-size Set = %d bytes, %v", len(val), ok)
	}
}

func TestKVGrowthAndScan(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	s := mustStore(t, db)
	ns, err := s.Create(context.Background(), "scan")
	if err != nil {
		t.Fatal(err)
	}
	// ~400-byte records: nine per leaf, so 200 keys span many leaves
	// and the scans cross from leaf to leaf.
	const keys = 200
	for k := uint64(0); k < keys; k++ {
		val := make([]byte, 400)
		val[0] = byte(k)
		set(t, db, ns, k*2, val) // even keys only
	}
	var visited []uint64
	err = db.View(context.Background(), func(tx *engine.Tx) error {
		return ns.Scan(tx, 10, 50, 0, func(key uint64, val []byte) error {
			if val[0] != byte(key/2) {
				return fmt.Errorf("key %d carries value tag %d", key, val[0])
			}
			visited = append(visited, key)
			return nil
		})
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	want := []uint64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44, 46, 48, 50}
	if len(visited) != len(want) {
		t.Fatalf("Scan visited %d keys, want %d: %v", len(visited), len(want), visited)
	}
	for i, k := range want {
		if visited[i] != k {
			t.Fatalf("Scan order: visited[%d] = %d, want %d", i, visited[i], k)
		}
	}
	// Limit cuts the scan short.
	visited = nil
	err = db.View(context.Background(), func(tx *engine.Tx) error {
		return ns.Scan(tx, 0, ^uint64(0), 5, func(key uint64, val []byte) error {
			visited = append(visited, key)
			return nil
		})
	})
	if err != nil {
		t.Fatalf("limited Scan: %v", err)
	}
	if len(visited) != 5 || visited[0] != 0 || visited[4] != 8 {
		t.Fatalf("limited Scan = %v", visited)
	}
}

// TestKVAbortedGrowthNotPublished: an aborted transaction whose inserts
// split leaves leaves none of its keys visible and the tree consistent,
// and the namespace goes on working.
func TestKVAbortedGrowthNotPublished(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	s := mustStore(t, db)
	ns, err := s.Create(context.Background(), "abort")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 40; k += 2 {
		set(t, db, ns, k, make([]byte, 400))
	}
	pages := db.NumPages()
	boom := errors.New("boom")
	err = db.Update(context.Background(), func(tx *engine.Tx) error {
		// The odd keys go between the committed ones: nine 400-byte
		// records fill a leaf, so these split leaves again and again.
		for k := uint64(1); k < 40; k += 2 {
			if err := ns.Set(tx, nil, k, make([]byte, 400)); err != nil {
				return err
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update = %v, want boom", err)
	}
	if db.NumPages() == pages {
		t.Fatal("the aborted inserts split no leaf")
	}
	checkNamespace(t, db, ns, func() map[uint64][]byte {
		m := map[uint64][]byte{}
		for k := uint64(0); k < 40; k += 2 {
			m[k] = make([]byte, 400)
		}
		return m
	}())
	set(t, db, ns, 1, []byte("alive"))
	if val, ok := get(t, db, ns, 1); !ok || string(val) != "alive" {
		t.Fatalf("Get after aborted growth = %q, %v", val, ok)
	}
}

func TestKVReopenPersistence(t *testing.T) {
	dir := t.TempDir()
	open := func() *engine.DB {
		db, err := engine.Open(engine.Config{
			Dir:         dir,
			BufferPages: 256,
			Policy:      engine.PolicyNone,
			NoFsync:     true,
		})
		if err != nil {
			t.Fatalf("engine.Open(%s): %v", dir, err)
		}
		return db
	}

	db := open()
	s := mustStore(t, db)
	ns, err := s.Create(context.Background(), "users")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(context.Background(), "orders"); err != nil {
		t.Fatal(err)
	}
	const keys = 120
	for k := uint64(0); k < keys; k++ {
		val := make([]byte, 300)
		val[0] = byte(k)
		set(t, db, ns, k, val)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen is recovery: the catalog, both namespaces and every record
	// must come back from the pages alone.
	db2 := open()
	defer db2.Close()
	s2 := mustStore(t, db2)
	names := s2.Names()
	if len(names) != 2 || names[0] != "orders" || names[1] != "users" {
		t.Fatalf("Names after reopen = %v", names)
	}
	ns2, err := s2.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		val, ok := get(t, db2, ns2, k)
		if !ok || len(val) != 300 || val[0] != byte(k) {
			t.Fatalf("Get(%d) after reopen = %d bytes (ok=%v, tag=%d)", k, len(val), ok, val[0])
		}
	}
	// New writes land and read back.
	set(t, db2, ns2, 1000, []byte("fresh"))
	if val, ok := get(t, db2, ns2, 1000); !ok || string(val) != "fresh" {
		t.Fatalf("Get(1000) after reopen = %q, %v", val, ok)
	}
}

func TestKVRefusesForeignDatabase(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	// Allocate page 1 as something other than a catalog.
	err := db.Update(context.Background(), func(tx *engine.Tx) error {
		_, err := tx.Alloc(page.TypeHeap)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(context.Background(), db); !errors.Is(err, ErrNotKV) {
		t.Fatalf("Open on a non-KV database = %v, want ErrNotKV", err)
	}
}

// TestKVRefusesOldLayout: a catalog written while records lived on heap
// pages, which carries the earlier magic, is refused, not misread.
func TestKVRefusesOldLayout(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	mustStore(t, db)
	err := db.Update(context.Background(), func(tx *engine.Tx) error {
		return tx.Edit(1, func(w *page.Writer) error {
			binary.LittleEndian.PutUint32(w.Bytes(page.HeaderSize, 4), 0xFACE4B56)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(context.Background(), db); !errors.Is(err, ErrNotKV) {
		t.Fatalf("Open on the earlier layout = %v, want ErrNotKV", err)
	}
}

// TestLogVolumePerSet guards what a SET costs in log bytes, commit record
// included: a fresh key pays for its record, its slot and the page header,
// not for the leaf they live on; an overwrite in place pays for the value's
// old and new bytes.
func TestLogVolumePerSet(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	s := mustStore(t, db)
	ns, err := s.Create(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	val := func(seed byte) []byte {
		v := make([]byte, 128)
		for i := range v {
			v[i] = seed + byte(i)*7
		}
		return v
	}
	// Fill a few leaves first, so that the measured inserts land in the
	// middle of slot arrays, and skip the insert that splits (it logs more,
	// and rightly).
	for k := uint64(0); k < 600; k++ {
		set(t, db, ns, 2*k, val(byte(k)))
	}
	worstInsert, worstOverwrite := int64(0), int64(0)
	for k := uint64(100); k < 140; k++ {
		pages := db.NumPages()
		mark := db.Log().Next()
		set(t, db, ns, 2*k+1, val(byte(k)))
		if n := int64(db.Log().Next() - mark); db.NumPages() == pages && n > worstInsert {
			worstInsert = n
		}
		mark = db.Log().Next()
		set(t, db, ns, 2*k, val(byte(k+1)))
		if n := int64(db.Log().Next() - mark); n > worstOverwrite {
			worstOverwrite = n
		}
	}
	t.Logf("worst fresh-key insert %d bytes of log, worst overwrite %d", worstInsert, worstOverwrite)
	if worstInsert == 0 || worstInsert > 250 {
		t.Errorf("a fresh-key insert of a 128-byte value logged %d bytes, want at most 250", worstInsert)
	}
	if limit := int64(2*128 + 150); worstOverwrite == 0 || worstOverwrite > limit {
		t.Errorf("an in-place overwrite of a 128-byte value logged %d bytes, want at most %d", worstOverwrite, limit)
	}
}
