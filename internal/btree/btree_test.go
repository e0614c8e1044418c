package btree

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// update runs fn in one Update transaction and fails t unless it commits.
func update(t *testing.T, db *engine.DB, fn func(tx *engine.Tx) error) {
	t.Helper()
	if err := db.Update(context.Background(), fn); err != nil {
		t.Fatal(err)
	}
}

func ridFor(k uint64) page.RID {
	return page.RID{Page: page.ID(k + 1000), Slot: uint16(k % 7)}
}

// del deletes k with DeleteFirst(k, k), fails t unless that succeeds and
// hands back k and ridFor(k) when k was there, and reports whether it was.
func del(t *testing.T, tx *engine.Tx, tree *Tree, k uint64) bool {
	t.Helper()
	got, rid, ok, err := tree.DeleteFirst(tx, k, k)
	if err != nil || ok && (got != k || rid != ridFor(k)) {
		t.Fatalf("DeleteFirst(%d, %d) = %d %v %v %v", k, k, got, rid, ok, err)
	}
	return ok
}

func TestInsertGetSmall(t *testing.T) {
	db := testDB(t)
	update(t, db, func(tx *engine.Tx) error {
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
		// A root over one leaf.
		h, err := tree.Height(tx)
		if err != nil || h != 2 {
			t.Fatalf("Height = %d, %v (want 2)", h, err)
		}
		return nil
	})
}

func TestInsertManyWithSplits(t *testing.T) {
	db := testDB(t)
	var tree *Tree
	const n = 3000 // several leaf splits and at least one root split
	update(t, db, func(tx *engine.Tx) error {
		tree, _ = Create(tx, "pk")
		keys := rand.New(rand.NewSource(7)).Perm(n)
		for _, k := range keys {
			if err := tree.Insert(tx, uint64(k), ridFor(uint64(k))); err != nil {
				t.Fatalf("Insert(%d): %v", k, err)
			}
		}
		return nil
	})

	update(t, db, func(tx2 *engine.Tx) error {
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
		return nil
	})
}

func TestScanRange(t *testing.T) {
	db := testDB(t)
	update(t, db, func(tx *engine.Tx) error {
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
		return nil
	})
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	update(t, db, func(tx *engine.Tx) error {
		tree, _ := Create(tx, "pk")
		for k := uint64(0); k < 500; k++ {
			tree.Insert(tx, k, ridFor(k))
		}
		for k := uint64(0); k < 500; k += 5 {
			if !del(t, tx, tree, k) {
				t.Fatalf("key %d was not there to delete", k)
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
		if del(t, tx, tree, 5) || del(t, tx, tree, 99999) {
			t.Fatal("deleted a key that was not there")
		}
		return nil
	})
}

// TestDeleteFirst: DeleteFirst takes the least key of a range, across
// leaves emptied by deletes, and finds nothing in a range that holds no key,
// whether the range ends before the next key or lies past the last one.
func TestDeleteFirst(t *testing.T) {
	db := testDB(t)
	update(t, db, func(tx *engine.Tx) error {
		tree, _ := Create(tx, "queue")
		const n = 3 * MaxLeafEntries // three leaves at least
		for k := uint64(0); k < 2*n; k += 2 {
			if err := tree.Insert(tx, k, ridFor(k)); err != nil {
				t.Fatal(err)
			}
		}
		// Empty every leaf but the last of the keys below 2*(n-10).
		for k := uint64(0); k < 2*(n-10); k += 2 {
			del(t, tx, tree, k)
		}
		for _, c := range []struct {
			lo, hi, want uint64
			ok           bool
		}{
			{0, 2 * n, 2 * (n - 10), true}, // past the emptied leaves
			{2*(n-10) + 1, 2*(n-10) + 1, 0, false},
			{2*(n-10) + 1, 2 * n, 2*(n-10) + 2, true},
			{2 * n, math.MaxUint64, 0, false},
			{1, 2*(n-10) - 1, 0, false}, // the emptied leaves alone
		} {
			k, rid, ok, err := tree.DeleteFirst(tx, c.lo, c.hi)
			if err != nil || ok != c.ok || ok && (k != c.want || rid != ridFor(k)) {
				t.Fatalf("DeleteFirst(%d, %d) = %d %v %v %v, want %d %v", c.lo, c.hi, k, rid, ok, err, c.want, c.ok)
			}
			if _, found, _ := tree.Get(tx, k); ok && found {
				t.Fatalf("DeleteFirst(%d, %d) left %d in the tree", c.lo, c.hi, k)
			}
		}
		var rest []uint64
		for k := uint64(2*(n-10) + 4); k < 2*n; k += 2 {
			rest = append(rest, k)
		}
		checkModel(t, tx, tree, rest)
		return nil
	})
}

func TestInsertSequentialAndReverse(t *testing.T) {
	db := testDB(t)
	for name, gen := range map[string]func(i, n int) uint64{
		"ascending":  func(i, n int) uint64 { return uint64(i) },
		"descending": func(i, n int) uint64 { return uint64(n - i) },
	} {
		update(t, db, func(tx *engine.Tx) error {
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
			return nil
		})
	}
}

// deepAscending is a count of ascending keys whose full leaves overflow a
// full internal root: loading them splits leaves and internal nodes.
const deepAscending = (MaxInnerEntries+1)*MaxLeafEntries + 10*MaxLeafEntries + 1

// insertAscending inserts keys 0 to n-1 in order, committing every 2048, and
// returns them.
func insertAscending(t *testing.T, db *engine.DB, tree *Tree, n int) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	for first := 0; first < n; first += 2048 {
		update(t, db, func(tx *engine.Tx) error {
			for i := first; i < min(first+2048, n); i++ {
				keys[i] = uint64(i)
				if err := tree.Insert(tx, keys[i], ridFor(keys[i])); err != nil {
					t.Fatalf("Insert(%d): %v", i, err)
				}
			}
			return nil
		})
	}
	return keys
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
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		tree, err = Create(tx, "pk")
		return err
	})
	// Enough ascending keys to split leaves and the internal root.
	keys := insertAscending(t, db, tree, deepAscending)
	db.Crash()

	cfg.Recover = true
	db2, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	update(t, db2, func(tx2 *engine.Tx) error {
		shape := checkModel(t, tx2, Attach("pk", tree.Root()), keys)
		if len(shape.Levels) != 3 {
			t.Fatalf("after recovery the tree has %d levels, want 3", len(shape.Levels))
		}
		return nil
	})
}

// checkTree fails t unless the tree passes Check.
func checkTree(t *testing.T, tx *engine.Tx, tree *Tree) Shape {
	t.Helper()
	s, err := tree.Check(tx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkModel fails t unless the tree holds exactly the ascending keys of
// model, each under ridFor(key), in its structure (checkTree), its full
// scan and Get.
func checkModel(t *testing.T, tx *engine.Tx, tree *Tree, model []uint64) Shape {
	t.Helper()
	s := checkTree(t, tx, tree)
	checkScan(t, tx, tree, 0, math.MaxUint64-1, model)
	for _, k := range model {
		if rid, ok, err := tree.Get(tx, k); err != nil || !ok || rid != ridFor(k) {
			t.Fatalf("Get(%d) = %v %v %v", k, rid, ok, err)
		}
	}
	return s
}

// checkScan fails t unless Scan(lo, hi) visits exactly want, in order.
func checkScan(t *testing.T, tx *engine.Tx, tree *Tree, lo, hi uint64, want []uint64) {
	t.Helper()
	i := 0
	if err := tree.Scan(tx, lo, hi, func(k uint64, rid page.RID) error {
		if i >= len(want) {
			t.Fatalf("Scan(%d, %d): key %d is %d, want only %d keys", lo, hi, i, k, len(want))
		}
		if k != want[i] || rid != ridFor(k) {
			t.Fatalf("Scan(%d, %d): key %d is %d (rid %v), want %d", lo, hi, i, k, rid, want[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("Scan(%d, %d) visited %d keys, want %d", lo, hi, i, len(want))
	}
}

// TestTreeMatchesModel runs seeded scripts of inserts and deletes against
// a set of keys.  After every step Get and a scan of the key it touched
// must agree with the set; every so many steps and at the end the whole
// tree must hold the set in order (checkModel).  The insert orders are
// those the engine's indexes see: ascending (the kv preload), two
// interleaved ascending streams (kv-insert's clients), ten ascending groups
// (TPC-C's districts), descending and random ones, and an ascending run
// into the gaps of an earlier one.  The deep scripts run until internal
// nodes split.  The scripts with runs insert some of their keys by
// InsertRun instead, 2 to 16 drawn at a time and sorted, a present or a
// repeated key among them stopping the run there.
func TestTreeMatchesModel(t *testing.T) {
	ascendingGroups := func(groups int) func() func(*rand.Rand) uint64 {
		return func() func(*rand.Rand) uint64 {
			next := make([]uint64, groups)
			return func(rng *rand.Rand) uint64 {
				g := rng.Intn(groups)
				next[g]++
				return uint64(g)<<32 | next[g]*10
			}
		}
	}
	for _, script := range []struct {
		name             string
		seed             int64
		steps, fullEvery int
		deletes          int                            // percent of steps
		keys             func() func(*rand.Rand) uint64 // a fresh generator of insert keys
		runs             int                            // percent of inserts made by InsertRun
	}{
		{"ascending", 1, 3000, 64, 15, ascendingGroups(1), 0},
		{"descending", 2, 3000, 64, 15, func() func(*rand.Rand) uint64 {
			var i uint64
			return func(*rand.Rand) uint64 { i++; return 1<<40 - 10*i }
		}, 0},
		{"random", 3, 3000, 64, 15, func() func(*rand.Rand) uint64 {
			return func(rng *rand.Rand) uint64 { return uint64(rng.Int63n(1 << 40)) }
		}, 0},
		{"interleaved", 4, 3000, 64, 15, func() func(*rand.Rand) uint64 {
			var next [2]uint64
			return func(rng *rand.Rand) uint64 {
				w := rng.Intn(2)
				next[w]++
				return 2*next[w] + uint64(w)
			}
		}, 0},
		{"groups", 5, 3000, 64, 15, ascendingGroups(10), 0},
		{"groups deep", 6, 80000, 16384, 15, ascendingGroups(10), 0},
		// An ascending pass, then a second one between its keys, whose
		// inserts reach the last key of full leaves with a right sibling.
		{"gaps", 7, 3000, 64, 0, func() func(*rand.Rand) uint64 {
			var i uint64
			return func(*rand.Rand) uint64 {
				i++
				if i <= 1500 {
					return 10 * i
				}
				return 10*(i-1500) + 5
			}
		}, 0},
		{"ascending runs", 8, 1500, 64, 15, ascendingGroups(1), 50},
		{"random runs", 9, 1500, 64, 15, func() func(*rand.Rand) uint64 {
			return func(rng *rand.Rand) uint64 { return uint64(rng.Int63n(1 << 12)) }
		}, 50},
		{"groups runs", 10, 1500, 64, 15, ascendingGroups(10), 50},
		{"groups deep runs", 11, 8000, 8000, 10, ascendingGroups(10), 95},
		{"gaps runs", 12, 1500, 64, 0, func() func(*rand.Rand) uint64 {
			var i uint64
			return func(*rand.Rand) uint64 {
				i++
				if i <= 3000 {
					return 10 * i
				}
				return 10*(i-3000) + 5
			}
		}, 50},
	} {
		t.Run(script.name, func(t *testing.T) {
			db := testDB(t)
			rng := rand.New(rand.NewSource(script.seed))
			keys := script.keys()
			var tree *Tree
			update(t, db, func(tx *engine.Tx) (err error) {
				tree, err = Create(tx, script.name)
				return err
			})
			// live holds the keys in the tree in no order; at[k] is k's
			// position in it.
			var live []uint64
			at := map[uint64]int{}
			// 256 steps to a transaction.
			for first := 1; first <= script.steps; first += 256 {
				update(t, db, func(tx *engine.Tx) error {
					for step := first; step <= min(first+255, script.steps); step++ {
						var k uint64
						var run []uint64
						if len(live) > 0 && rng.Intn(100) < script.deletes {
							i := rng.Intn(len(live))
							k = live[i]
							if !del(t, tx, tree, k) {
								t.Fatalf("step %d: %d was not there to delete", step, k)
							}
							last := live[len(live)-1]
							live[i], at[last] = last, i
							live = live[:len(live)-1]
							delete(at, k)
							if del(t, tx, tree, k) {
								t.Fatalf("step %d: deleted %d twice", step, k)
							}
						} else if rng.Intn(100) < script.runs {
							run = make([]uint64, 2+rng.Intn(15))
							for i := range run {
								run[i] = keys(rng)
							}
							slices.Sort(run)
							err := tree.InsertRun(tx, run, ridsFor(run))
							stop := len(run)
							for i, k := range run {
								if _, present := at[k]; present {
									stop = i
									break
								}
								at[k] = len(live)
								live = append(live, k)
							}
							if stop < len(run) && !errors.Is(err, ErrDuplicate) || stop == len(run) && err != nil {
								t.Fatalf("step %d: InsertRun(%v): %v, want a duplicate at %d of %d", step, run, err, stop, len(run))
							}
						} else {
							k = keys(rng)
							_, present := at[k]
							err := tree.Insert(tx, k, ridFor(k))
							if present {
								if !errors.Is(err, ErrDuplicate) {
									t.Fatalf("step %d: Insert(%d) of a present key: %v", step, k, err)
								}
							} else {
								if err != nil {
									t.Fatalf("step %d: Insert(%d): %v", step, k, err)
								}
								at[k] = len(live)
								live = append(live, k)
							}
						}

						if run != nil {
							// The run's ends stand for it.
							k = run[len(run)-1]
							if _, present := at[run[0]]; !present {
								t.Fatalf("step %d: the run's first key %d is not in the model", step, run[0])
							}
							checkScan(t, tx, tree, run[0], run[0], []uint64{run[0]})
						}
						var want []uint64
						if _, present := at[k]; present {
							want = []uint64{k}
						}
						if rid, ok, err := tree.Get(tx, k); err != nil || ok != (want != nil) || ok && rid != ridFor(k) {
							t.Fatalf("step %d: Get(%d) = %v %v %v, want present=%v", step, k, rid, ok, err, want != nil)
						}
						checkScan(t, tx, tree, k, k, want)
						if step%script.fullEvery == 0 || step == script.steps {
							s := checkModel(t, tx, tree, slices.Sorted(maps.Keys(at)))
							if step == script.steps && max(script.steps, len(live)) > deepAscending && len(s.Levels) < 3 {
								t.Fatalf("%d steps left %d levels, want 3 (an internal split)", step, len(s.Levels))
							}
						}
					}
					return nil
				})
			}
		})
	}
}

// TestAscendingLoadFillsPages: ascending keys fill every node but the
// rightmost of each level, leaves and internal nodes alike, so n keys take
// ceil(n/MaxLeafEntries) leaves.
func TestAscendingLoadFillsPages(t *testing.T) {
	db := testDB(t)
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		tree, err = Create(tx, "pk")
		return err
	})
	keys := insertAscending(t, db, tree, deepAscending)
	var s Shape
	update(t, db, func(tx *engine.Tx) error {
		s = checkModel(t, tx, tree, keys)
		return nil
	})

	if want := (deepAscending + MaxLeafEntries - 1) / MaxLeafEntries; len(s.Leaves) != want {
		t.Fatalf("%d ascending keys take %d leaves, want %d", deepAscending, len(s.Leaves), want)
	}
	if len(s.Levels) != 3 {
		t.Fatalf("the tree has %d levels, want 3 (an internal split)", len(s.Levels))
	}
	for depth, counts := range s.Levels {
		full := MaxInnerEntries
		if depth == len(s.Levels)-1 {
			full = MaxLeafEntries
		}
		for i, n := range counts[:len(counts)-1] {
			if n != full {
				t.Fatalf("node %d of %d at depth %d holds %d keys, want %d", i, len(counts), depth, n, full)
			}
		}
	}
}

func TestNodeCapacityConstants(t *testing.T) {
	if MaxLeafEntries < 100 || MaxInnerEntries < 100 {
		t.Fatalf("node capacities too small: leaf=%d inner=%d", MaxLeafEntries, MaxInnerEntries)
	}
	// The high key and right sibling take the last 16 bytes of a leaf.
	if leafHeader+MaxLeafEntries*leafEntrySize+16 > page.PayloadSize || highOff != page.Size-16 {
		t.Fatal("leaf layout reaches the high key and right sibling")
	}
	if page.HeaderSize+innerHeader+8+MaxInnerEntries*innerEntrySize > levelOff {
		t.Fatal("inner layout reaches the level mark")
	}
}

// TestLeafEdgesAgainstMap: inserts and deletes at the first, a middle and
// the last position of full and nearly full leaves — the array moves the
// tree declares with Tx.Move — committed, aborted, and left unfinished by a
// crash, agree with a map before and after restart recovery.
func TestLeafEdgesAgainstMap(t *testing.T) {
	devs := []*device.Device{
		device.New("data", device.ProfileCheetah15K, 16384),
		device.New("log", device.ProfileCheetah15K, 32768),
		device.New("flash", device.ProfileSamsung470, 4096),
	}
	cfg := engine.Config{
		DataDev:        devs[0],
		LogDev:         devs[1],
		FlashDev:       devs[2],
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
	update(t, db, func(tx *engine.Tx) error {
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
		return nil
	})

	// agree checks a tree against its map: the scan in order, and Get.
	agree := func(db *engine.DB, c *tcase, when string) {
		t.Helper()
		err := db.View(context.Background(), func(tx *engine.Tx) error {
			var got []uint64
			if err := c.tree.Scan(tx, 0, 1<<62, func(k uint64, rid page.RID) error {
				if rid != c.keys[k] {
					t.Fatalf("%s: key %d has rid %v, want %v", when, k, rid, c.keys[k])
				}
				got = append(got, k)
				return nil
			}); err != nil {
				return err
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
			return nil
		})
		if err != nil {
			t.Fatal(err)
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
			if !del(t, tx, c.tree, k) {
				t.Fatalf("key %d was not there to delete", k)
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
	errRollback := errors.New("roll back")
	for i, c := range cases {
		for _, commit := range []bool{false, true} {
			err := db.Update(context.Background(), func(tx *engine.Tx) error {
				op(tx, c, i, 1, commit)
				if !commit {
					return errRollback
				}
				return nil
			})
			if err != nil && (commit || !errors.Is(err, errRollback)) {
				t.Fatal(err)
			}
			agree(db, c, "after the transaction")
		}
	}

	// A loser: the same operations again, forced to the log.  The crash
	// comes while it is still open: the devices' contents then are the
	// image a restart finds.
	errCrash := errors.New("crash image taken")
	image := make([][][]byte, len(devs))
	err = db.Update(context.Background(), func(loser *engine.Tx) error {
		for i, c := range cases {
			op(loser, c, i, 2, false)
		}
		if err := db.Log().ForceAll(); err != nil {
			return err
		}
		for i, d := range devs {
			image[i] = d.SnapshotContent()
		}
		return errCrash
	})
	if !errors.Is(err, errCrash) {
		t.Fatalf("the loser's transaction: %v", err)
	}
	db.Crash()

	for i, d := range devs {
		devs[i] = device.New(d.Name(), d.Profile(), d.NumBlocks())
		devs[i].RestoreContent(image[i])
	}
	cfg.DataDev, cfg.LogDev, cfg.FlashDev = devs[0], devs[1], devs[2]
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

// TestConcurrentRIDTree: eight writers insert into one index shaped like
// TPC-C's order lines — each transaction a district's next order with one
// to ten lines, keys grouped by district and ascending within it — while a
// deleter takes each district's lowest key, as Delivery does, and a reader
// scans the whole index and checks its structure.  Leaves split in the
// middle all the time, since the districts share them.  No transaction
// may upgrade a lock, every scan must ascend and every Check pass.  Every
// operation takes its leaves left to right and holds no internal node
// while it waits for one, so deadlocks are rare (none in 25 runs): the
// test allows one retried deadlock per writer in all.  The index must end
// up holding exactly the keys inserted and not deleted.
func TestConcurrentRIDTree(t *testing.T) {
	const writers, perWriter, districts = 8, 60, 10
	db := testDB(t)
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		tree, err = Create(tx, "order_line")
		return err
	})
	key := func(d int, o uint64, ol int) uint64 { return (uint64(d)<<32|o)<<4 | uint64(ol) }
	// retry runs fn in Update or View transactions until it does not lose
	// a deadlock, and returns how many it lost.
	var retries atomic.Int64
	retry := func(run func(context.Context, func(*engine.Tx) error) error, fn func(*engine.Tx) error) error {
		for {
			err := run(context.Background(), fn)
			if !errors.Is(err, engine.ErrDeadlock) {
				return err
			}
			retries.Add(1)
		}
	}

	var (
		orders    [districts]atomic.Uint64
		mu        sync.Mutex
		inserted  = map[uint64]bool{}
		deleted   = map[uint64]bool{}
		errs      = make(chan error, writers+2)
		done      = make(chan struct{})
		rounds    int
		writersWG sync.WaitGroup
		othersWG  sync.WaitGroup
	)
	for w := range writers {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range perWriter {
				d := rng.Intn(districts)
				o, lines := orders[d].Add(1), 1+rng.Intn(10)
				if err := retry(db.Update, func(tx *engine.Tx) error {
					for ol := 1; ol <= lines; ol++ {
						if err := tree.Insert(tx, key(d, o, ol), ridFor(key(d, o, ol))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				for ol := 1; ol <= lines; ol++ {
					inserted[key(d, o, ol)] = true
				}
				mu.Unlock()
			}
		}()
	}
	othersWG.Add(2)
	go func() { // the deleter
		defer othersWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var got []uint64
			if err := retry(db.Update, func(tx *engine.Tx) error {
				got = got[:0]
				for d := range districts {
					k, rid, ok, err := tree.DeleteFirst(tx, key(d, 0, 0), key(d+1, 0, 0)-1)
					if err != nil {
						return err
					}
					if ok && rid != ridFor(k) {
						return fmt.Errorf("DeleteFirst took %d with rid %v", k, rid)
					}
					if ok {
						got = append(got, k)
					}
				}
				return nil
			}); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			for _, k := range got {
				if deleted[k] {
					mu.Unlock()
					errs <- fmt.Errorf("key %d deleted twice", k)
					return
				}
				deleted[k] = true
			}
			mu.Unlock()
		}
	}()
	go func() { // the reader
		defer othersWG.Done()
		for ; ; rounds++ {
			select {
			case <-done:
				return
			default:
			}
			if err := retry(db.View, func(tx *engine.Tx) error {
				prev, n := uint64(0), 0
				if err := tree.Scan(tx, 0, math.MaxUint64, func(k uint64, rid page.RID) error {
					if n > 0 && k <= prev || rid != ridFor(k) {
						return fmt.Errorf("scan: key %d (rid %v) after %d", k, rid, prev)
					}
					prev, n = k, n+1
					return nil
				}); err != nil {
					return err
				}
				_, err := tree.Check(tx)
				return err
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	writersWG.Wait()
	close(done)
	othersWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	locks := db.Snapshot().Locks
	t.Logf("%d reader rounds, %d keys deleted, %d deadlocks retried; locks %+v", rounds, len(deleted), retries.Load(), locks)
	if locks.Upgrades != 0 {
		t.Fatalf("%d lock upgrades, want none", locks.Upgrades)
	}
	if retries.Load() > writers {
		t.Fatalf("%d deadlocks retried, more than %d", retries.Load(), writers)
	}
	if len(deleted) == 0 || rounds == 0 {
		t.Fatalf("the deleter took %d keys and the reader ran %d rounds, want some of each", len(deleted), rounds)
	}
	var model []uint64
	for k := range inserted {
		if !deleted[k] {
			model = append(model, k)
		}
	}
	for k := range deleted {
		if !inserted[k] {
			t.Fatalf("key %d deleted but never inserted", k)
		}
	}
	slices.Sort(model)
	update(t, db, func(tx *engine.Tx) error {
		s := checkModel(t, tx, tree, model)
		if len(s.Leaves) < 8 {
			t.Fatalf("the index has %d leaves, want splits", len(s.Leaves))
		}
		return nil
	})
}
