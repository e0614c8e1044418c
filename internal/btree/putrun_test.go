package btree

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
)

// putRunDB is a database whose buffer holds every page the PutRun tests
// make, so the images they compare are never written out between them.
func putRunDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Config{
		DataDev:     device.New("data", device.ProfileCheetah15K, 16384),
		LogDev:      device.New("log", device.ProfileCheetah15K, 65536),
		BufferPages: 4096,
		Policy:      engine.PolicyNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// putValue is the value of key in round r, n bytes long.
func putValue(key uint64, r, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(key) ^ byte(r) ^ byte(i)
	}
	return v
}

// randomRun draws a strictly ascending run of keys below span, with values
// of mixed sizes: mostly small, some large enough that an overwrite moves
// its record or a split finds no cut that makes room.
func randomRun(rng *rand.Rand, span, n, r int) ([]uint64, [][]byte) {
	set := map[uint64]bool{}
	for len(set) < n {
		set[uint64(rng.Intn(span))] = true
	}
	keys := slices.Sorted(maps.Keys(set))
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		size := rng.Intn(200)
		switch rng.Intn(20) {
		case 0:
			size = 1000 + rng.Intn(MaxValue-1000)
		case 1, 2:
			size = 300 + rng.Intn(400)
		}
		vals[i] = putValue(k, r, size)
	}
	return keys, vals
}

// TestPutRunMatchesPut: PutRun leaves every page byte for byte as Put
// called pair by pair leaves it, LSNs aside, with fewer log records.  The
// runs are random and sorted, over a key range they revisit, so they mix
// fresh keys with overwrites that fit their cells, that move their
// records and that compact their leaves, and split leaves in the middle,
// at their ends, and around records too large for any cut.
func TestPutRunMatchesPut(t *testing.T) {
	const rounds = 40
	var (
		dbs     = [2]*engine.DB{putRunDB(t), putRunDB(t)}
		trees   [2]*Tree
		records [2]int64
	)
	model := map[uint64][]byte{}
	for i, db := range dbs {
		update(t, db, func(tx *engine.Tx) (err error) {
			trees[i], err = CreateRecords(tx, "kv")
			return err
		})
		before := db.Snapshot().Wal.Appends
		rng := rand.New(rand.NewSource(7))
		for r := range rounds {
			keys, vals := randomRun(rng, 1500, 1+rng.Intn(400), r)
			update(t, db, func(tx *engine.Tx) error {
				if i == 1 {
					return trees[i].PutRun(tx, keys, vals)
				}
				for j, k := range keys {
					if err := trees[i].Put(tx, k, vals[j]); err != nil {
						return err
					}
				}
				return nil
			})
			if i == 1 {
				for j, k := range keys {
					model[k] = vals[j]
				}
			}
		}
		records[i] = db.Snapshot().Wal.Appends - before
	}
	t.Logf("Put logged %d records, PutRun %d", records[0], records[1])
	// The runs are sparse, a few keys to a leaf: TestPutRunLogsARecordPerLeaf
	// holds a dense one to a record per leaf.
	if records[1] >= records[0]*3/4 {
		t.Errorf("PutRun logged %d records, Put %d: want under three quarters", records[1], records[0])
	}
	ia, ib := images(t, dbs[0]), images(t, dbs[1])
	if len(ia) != len(ib) {
		t.Fatalf("Put left %d pages, PutRun %d", len(ia), len(ib))
	}
	for i := range ia {
		if string(ia[i]) != string(ib[i]) {
			t.Fatalf("page %d differs", i+1)
		}
	}
	update(t, dbs[1], func(tx *engine.Tx) error {
		s, err := trees[1].Check(tx)
		if err != nil {
			return err
		}
		if len(s.Leaves) < 20 {
			t.Errorf("the runs left %d leaves, want at least 20", len(s.Leaves))
		}
		return checkRecords(tx, trees[1], model)
	})
}

// checkRecords reports whether the record tree holds exactly model.
func checkRecords(tx *engine.Tx, tree *Tree, model map[uint64][]byte) error {
	n := 0
	if err := tree.ScanRecords(tx, 0, 1<<62, func(k uint64, v []byte) error {
		n++
		if want, ok := model[k]; !ok || string(v) != string(want) {
			return fmt.Errorf("key %d holds %d bytes, want %d (present %v)", k, len(v), len(want), ok)
		}
		return nil
	}); err != nil {
		return err
	}
	if n != len(model) {
		return fmt.Errorf("the tree holds %d records, want %d", n, len(model))
	}
	return nil
}

// TestPutRunLogsARecordPerLeaf: a 500-key ascending run into an empty
// record tree logs one update record for each leaf it fills, and the
// records of the splits that make the leaves — no record per key.
func TestPutRunLogsARecordPerLeaf(t *testing.T) {
	db := putRunDB(t)
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		tree, err = CreateRecords(tx, "kv")
		return err
	})
	keys := make([]uint64, 500)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i], vals[i] = uint64(i), putValue(uint64(i), 0, 128)
	}
	before := db.Snapshot().Wal.Appends
	update(t, db, func(tx *engine.Tx) error { return tree.PutRun(tx, keys, vals) })
	records := db.Snapshot().Wal.Appends - before
	update(t, db, func(tx *engine.Tx) error {
		s, err := tree.Check(tx)
		if err != nil {
			return err
		}
		// A split at a leaf's end logs the new leaf, formatted and holding
		// its first record, the old leaf's sibling link and the parent's
		// new entry: three records, and one more fills the leaf; plus the
		// commit.  500 keys: 18 fills, 17 splits and the commit, 70.
		leaves := int64(len(s.Leaves))
		t.Logf("500 keys in %d leaves: %d log records", leaves, records)
		if records > 4*leaves+1 {
			t.Errorf("500 keys in %d leaves logged %d records, want at most %d", leaves, records, 4*leaves+1)
		}
		return nil
	})
}

// TestPutRunRefusesBadRuns: a run that does not ascend strictly, a value
// too large and a run whose lengths differ are refused before anything
// is written.
func TestPutRunRefusesBadRuns(t *testing.T) {
	db := putRunDB(t)
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		tree, err = CreateRecords(tx, "kv")
		return err
	})
	v := []byte("v")
	for _, c := range []struct {
		keys []uint64
		vals [][]byte
	}{
		{[]uint64{1, 3, 2}, [][]byte{v, v, v}},
		{[]uint64{1, 2, 2}, [][]byte{v, v, v}},
		{[]uint64{1, 2}, [][]byte{v, make([]byte, MaxValue+1)}},
		{[]uint64{1, 2}, [][]byte{v}},
	} {
		update(t, db, func(tx *engine.Tx) error {
			if err := tree.PutRun(tx, c.keys, c.vals); err == nil {
				t.Errorf("PutRun(%v) of %d values succeeded", c.keys, len(c.vals))
			}
			return checkRecords(tx, tree, nil)
		})
	}
}

// TestPutRunSurvivesCrash: restart redoes a committed transaction's
// PutRun and undoes a loser's whose records reached the log before the
// crash: the records and the tree's structure (Check) are the winner's.
// Both runs split leaves, and the loser's overwrites the winner's keys
// with values of other sizes, in place and not.
func TestPutRunSurvivesCrash(t *testing.T) {
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
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		tree, err = CreateRecords(tx, "kv")
		return err
	})
	rng := rand.New(rand.NewSource(3))
	want := map[uint64][]byte{}
	keys, vals := randomRun(rng, 1000, 400, 1)
	update(t, db, func(tx *engine.Tx) error { return tree.PutRun(tx, keys, vals) })
	for i, k := range keys {
		want[k] = vals[i]
	}

	errCrash := errors.New("crash image taken")
	image := make([][][]byte, len(devs))
	err = db.Update(context.Background(), func(loser *engine.Tx) error {
		keys, vals := randomRun(rng, 1500, 400, 2)
		if err := tree.PutRun(loser, keys, vals); err != nil {
			return err
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
	tree = Attach(tree.Name(), tree.Root())
	if err := db2.View(context.Background(), func(tx *engine.Tx) error {
		if _, err := tree.Check(tx); err != nil {
			return err
		}
		return checkRecords(tx, tree, want)
	}); err != nil {
		t.Fatal(err)
	}
}
