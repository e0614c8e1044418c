package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

func testDB(t *testing.T) *engine.DB {
	t.Helper()
	cfg := engine.Config{
		DataDev:     device.New("data", device.ProfileCheetah15K, 16384),
		LogDev:      device.New("log", device.ProfileCheetah15K, 32768),
		BufferPages: 128,
		Policy:      engine.PolicyNone,
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func ridFor(k uint64) page.RID {
	return page.RID{Page: page.ID(k + 1000), Slot: uint16(k % 7)}
}

func TestInsertGetSmall(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin()
	tree, err := Create(tx, "pk")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name() != "pk" || tree.Root() == page.InvalidID {
		t.Fatal("bad tree handle")
	}
	for k := uint64(1); k <= 50; k++ {
		if err := tree.Insert(tx, k, ridFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 50; k++ {
		rid, found, err := tree.Get(tx, k)
		if err != nil || !found || rid != ridFor(k) {
			t.Fatalf("Get(%d) = %v %v %v", k, rid, found, err)
		}
	}
	if _, found, _ := tree.Get(tx, 999); found {
		t.Fatal("phantom key")
	}
	if err := tree.Insert(tx, 10, ridFor(10)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	h, err := tree.Height(tx)
	if err != nil || h != 1 {
		t.Fatalf("Height = %d, %v (want 1)", h, err)
	}
	tx.Commit()
}

func TestInsertManyWithSplits(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin()
	tree, _ := Create(tx, "pk")
	const n = 3000 // several leaf splits and at least one root split
	keys := rand.New(rand.NewSource(7)).Perm(n)
	for _, k := range keys {
		if err := tree.Insert(tx, uint64(k), ridFor(uint64(k))); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := db.Begin()
	for k := 0; k < n; k++ {
		rid, found, err := tree.Get(tx2, uint64(k))
		if err != nil || !found {
			t.Fatalf("Get(%d) after splits = %v %v", k, found, err)
		}
		if rid != ridFor(uint64(k)) {
			t.Fatalf("Get(%d) rid = %v", k, rid)
		}
	}
	h, err := tree.Height(tx2)
	if err != nil || h < 2 {
		t.Fatalf("Height = %d, %v (want >= 2 after splits)", h, err)
	}
	// The root page id must not have changed.
	if tree.Root() != Attach("pk", tree.Root()).Root() {
		t.Fatal("root moved")
	}
	tx2.Commit()
}

func TestScanRange(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin()
	tree, _ := Create(tx, "pk")
	for k := uint64(0); k < 2000; k += 2 { // even keys only
		if err := tree.Insert(tx, k, ridFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	if err := tree.Scan(tx, 100, 140, func(k uint64, rid page.RID) error {
		got = append(got, k)
		if rid != ridFor(k) {
			t.Fatalf("rid mismatch for %d", k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120, 122, 124, 126, 128, 130, 132, 134, 136, 138, 140}
	if len(got) != len(want) {
		t.Fatalf("Scan returned %v", got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("scan out of order")
	}
	// Early stop.
	count := 0
	if err := tree.Scan(tx, 0, 1<<62, func(k uint64, rid page.RID) error {
		count++
		if count == 10 {
			return ErrStopScan
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
	// Empty range.
	empty := 0
	if err := tree.Scan(tx, 3001, 3005, func(uint64, page.RID) error { empty++; return nil }); err != nil {
		t.Fatal(err)
	}
	if empty != 0 {
		t.Fatalf("empty range returned %d keys", empty)
	}
	tx.Commit()
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin()
	tree, _ := Create(tx, "pk")
	for k := uint64(0); k < 500; k++ {
		tree.Insert(tx, k, ridFor(k))
	}
	for k := uint64(0); k < 500; k += 5 {
		if err := tree.Delete(tx, k); err != nil {
			t.Fatalf("Delete(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < 500; k++ {
		_, found, err := tree.Get(tx, k)
		if err != nil {
			t.Fatal(err)
		}
		if (k%5 == 0) == found {
			t.Fatalf("key %d found=%v after deletes", k, found)
		}
	}
	if err := tree.Delete(tx, 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if err := tree.Delete(tx, 99999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	tx.Commit()
}

func TestInsertSequentialAndReverse(t *testing.T) {
	db := testDB(t)
	for name, gen := range map[string]func(i, n int) uint64{
		"ascending":  func(i, n int) uint64 { return uint64(i) },
		"descending": func(i, n int) uint64 { return uint64(n - i) },
	} {
		tx, _ := db.Begin()
		tree, _ := Create(tx, name)
		const n = 1500
		for i := 0; i < n; i++ {
			if err := tree.Insert(tx, gen(i, n), ridFor(gen(i, n))); err != nil {
				t.Fatalf("%s Insert(%d): %v", name, gen(i, n), err)
			}
		}
		// All keys present and in order via a full scan.
		var prev uint64
		count := 0
		if err := tree.Scan(tx, 0, 1<<63, func(k uint64, rid page.RID) error {
			if count > 0 && k <= prev {
				t.Fatalf("%s scan out of order: %d after %d", name, k, prev)
			}
			prev = k
			count++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("%s scan found %d keys, want %d", name, count, n)
		}
		tx.Commit()
	}
}

func TestTreeSurvivesCrashRecovery(t *testing.T) {
	dataDev := device.New("data", device.ProfileCheetah15K, 16384)
	logDev := device.New("log", device.ProfileCheetah15K, 32768)
	flashDev := device.New("flash", device.ProfileSamsung470, 4096)
	cfg := engine.Config{
		DataDev:        dataDev,
		LogDev:         logDev,
		FlashDev:       flashDev,
		BufferPages:    64,
		Policy:         engine.PolicyFaCEGSC,
		FlashFrames:    512,
		GroupSize:      16,
		SegmentEntries: 128,
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tree, _ := Create(tx, "pk")
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := tree.Insert(tx, k, ridFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	cfg.Recover = true
	db2, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tree2 := Attach("pk", tree.Root())
	tx2, _ := db2.Begin()
	for k := uint64(0); k < n; k++ {
		rid, found, err := tree2.Get(tx2, k)
		if err != nil || !found || rid != ridFor(k) {
			t.Fatalf("after recovery Get(%d) = %v %v %v", k, rid, found, err)
		}
	}
	tx2.Commit()
}

func TestNodeCapacityConstants(t *testing.T) {
	if MaxLeafEntries < 100 || MaxInnerEntries < 100 {
		t.Fatalf("node capacities too small: leaf=%d inner=%d", MaxLeafEntries, MaxInnerEntries)
	}
	if leafHeader+MaxLeafEntries*leafEntrySize > page.PayloadSize {
		t.Fatal("leaf layout overflows the page payload")
	}
	if innerHeader+8+MaxInnerEntries*innerEntrySize > page.PayloadSize {
		t.Fatal("inner layout overflows the page payload")
	}
}

// TestLeafEdgesAgainstMap: inserts and deletes at the first, a middle and
// the last position of full and nearly full leaves — the array moves the
// tree declares with Tx.Move — committed, aborted, and left unfinished by a
// crash, agree with a map before and after restart recovery.
func TestLeafEdgesAgainstMap(t *testing.T) {
	cfg := engine.Config{
		DataDev:        device.New("data", device.ProfileCheetah15K, 16384),
		LogDev:         device.New("log", device.ProfileCheetah15K, 32768),
		FlashDev:       device.New("flash", device.ProfileSamsung470, 4096),
		BufferPages:    8, // small, so pages cross the flash cache mid-test
		Policy:         engine.PolicyFaCEGSC,
		FlashFrames:    512,
		GroupSize:      16,
		SegmentEntries: 128,
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One single-leaf tree per case, keys 10, 20, ...: room below the
	// first, between any two and above the last.
	type tcase struct {
		tree *Tree
		keys map[uint64]page.RID
	}
	sortedKeys := func(c *tcase) []uint64 {
		keys := make([]uint64, 0, len(c.keys))
		for k := range c.keys {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys
	}
	var cases []*tcase
	tx, _ := db.Begin()
	for _, fill := range []int{MaxLeafEntries - 1, MaxLeafEntries} {
		for range 6 {
			tree, err := Create(tx, "edge")
			if err != nil {
				t.Fatal(err)
			}
			c := &tcase{tree: tree, keys: map[uint64]page.RID{}}
			for i := 1; i <= fill; i++ {
				k := uint64(10 * i)
				if err := tree.Insert(tx, k, ridFor(k)); err != nil {
					t.Fatal(err)
				}
				c.keys[k] = ridFor(k)
			}
			cases = append(cases, c)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// agree checks a tree against its map: the scan in order, and Get.
	agree := func(db *engine.DB, c *tcase, when string) {
		t.Helper()
		tx, _ := db.Begin()
		defer tx.Commit()
		var got []uint64
		if err := c.tree.Scan(tx, 0, 1<<62, func(k uint64, rid page.RID) error {
			if rid != c.keys[k] {
				t.Fatalf("%s: key %d has rid %v, want %v", when, k, rid, c.keys[k])
			}
			got = append(got, k)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := sortedKeys(c)
		if len(got) != len(want) {
			t.Fatalf("%s: scan found %d keys, want %d", when, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: key %d of the scan is %d, want %d", when, i, got[i], want[i])
			}
			if rid, ok, err := c.tree.Get(tx, got[i]); err != nil || !ok || rid != c.keys[got[i]] {
				t.Fatalf("%s: Get(%d) = %v %v %v", when, got[i], rid, ok, err)
			}
		}
	}

	// op inserts the key d before the first, or d after the middle or the
	// last key of the tree, or deletes the first, middle or last key, as
	// case i says, and keeps the map in step when commit is set.
	op := func(tx *engine.Tx, c *tcase, i int, d uint64, commit bool) {
		t.Helper()
		sorted := sortedKeys(c)
		k := sorted[[]int{0, len(sorted) / 2, len(sorted) - 1}[i/2%3]]
		if i%2 == 1 {
			if err := c.tree.Delete(tx, k); err != nil {
				t.Fatal(err)
			}
			if commit {
				delete(c.keys, k)
			}
			return
		}
		if i/2%3 == 0 {
			k -= d
		} else {
			k += d
		}
		if err := c.tree.Insert(tx, k, ridFor(k)); err != nil {
			t.Fatal(err)
		}
		if commit {
			c.keys[k] = ridFor(k)
		}
	}

	// Each case's operation once aborted, then committed.
	for i, c := range cases {
		for _, commit := range []bool{false, true} {
			tx, _ := db.Begin()
			op(tx, c, i, 1, commit)
			if commit {
				err = tx.Commit()
			} else {
				err = tx.Abort()
			}
			if err != nil {
				t.Fatal(err)
			}
			agree(db, c, "after the transaction")
		}
	}

	// A loser: the same operations again, forced to the log, then a crash.
	loser, _ := db.Begin()
	for i, c := range cases {
		op(loser, c, i, 2, false)
	}
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
	for _, c := range cases {
		agree(db2, c, "after recovery")
	}
}
