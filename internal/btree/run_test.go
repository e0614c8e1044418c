package btree

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/heap"
	"github.com/reprolab/face/internal/page"
)

// images returns the image of every allocated page of db, its LSN cleared:
// a run logs fewer records than the inserts it stands for, so the LSNs it
// stamps differ, and nothing else may.
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

// TestInsertRunMatchesInsert: InsertRun leaves the page images and the tree
// shape that Insert called key by key leaves, with fewer log records and
// no more log bytes.  The tree is loaded in order with every tenth key, so
// its leaves are full; the runs go into the gaps, the first of them across
// two full leaves, which splits each in mid-run, then far apart, one key
// to a leaf, then nine keys into one gap in the middle of a leaf, more
// than one move of the entries above it can make room for, and last past
// the end, where the rightmost leaf fills and splits at its end.
func TestInsertRunMatchesInsert(t *testing.T) {
	const loaded = 3 * MaxLeafEntries
	var runs [][]uint64
	var run []uint64
	for k := uint64(15); k < 10*2*MaxLeafEntries; k += 10 {
		run = append(run, k)
	}
	runs = append(runs, run, []uint64{3, 10*MaxLeafEntries + 7, 10*2*MaxLeafEntries + 7, 10*loaded - 1})
	run = nil
	for k := uint64(10*(2*MaxLeafEntries+MaxLeafEntries/2) + 1); k < 10*(2*MaxLeafEntries+MaxLeafEntries/2)+10; k++ {
		run = append(run, k)
	}
	runs = append(runs, run)
	run = nil
	for k := uint64(10*loaded + 1); k < 10*loaded+2*MaxLeafEntries; k++ {
		run = append(run, k)
	}
	runs = append(runs, run)

	var (
		dbs     = [2]*engine.DB{testDB(t), testDB(t)}
		trees   [2]*Tree
		records [2]int64
		bytes   [2]int64
	)
	for i, db := range dbs {
		update(t, db, func(tx *engine.Tx) (err error) {
			if trees[i], err = Create(tx, "order_line"); err != nil {
				return err
			}
			for k := uint64(10); k <= 10*loaded; k += 10 {
				if err := trees[i].Insert(tx, k, ridFor(k)); err != nil {
					return err
				}
			}
			return nil
		})
		before, mark := db.Snapshot().Wal.Appends, db.Log().Next()
		for _, run := range runs {
			update(t, db, func(tx *engine.Tx) error {
				if i == 1 {
					return trees[i].InsertRun(tx, run, ridsFor(run))
				}
				for _, k := range run {
					if err := trees[i].Insert(tx, k, ridFor(k)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		records[i] = db.Snapshot().Wal.Appends - before
		bytes[i] = int64(db.Log().Next() - mark)
	}
	t.Logf("Insert logged %d records and %d bytes, InsertRun %d and %d", records[0], bytes[0], records[1], bytes[1])
	if records[1] >= records[0]*2/3 || bytes[1] > bytes[0] {
		t.Errorf("the runs logged %d records and %d bytes, Insert %d and %d: want under two thirds of the records and no more bytes", records[1], bytes[1], records[0], bytes[0])
	}
	ia, ib := images(t, dbs[0]), images(t, dbs[1])
	if len(ia) != len(ib) {
		t.Fatalf("Insert left %d pages, InsertRun %d", len(ia), len(ib))
	}
	for i := range ia {
		if string(ia[i]) != string(ib[i]) {
			t.Fatalf("page %d differs", i+1)
		}
	}
	model := make([]uint64, 0, loaded)
	for k := uint64(10); k <= 10*loaded; k += 10 {
		model = append(model, k)
	}
	for _, run := range runs {
		model = append(model, run...)
	}
	slices.Sort(model)
	update(t, dbs[1], func(tx *engine.Tx) error {
		if s := checkModel(t, tx, trees[1], model); len(s.Leaves) < 6 {
			t.Errorf("the runs left %d leaves, want the splits of at least six", len(s.Leaves))
		}
		return nil
	})
}

func ridsFor(keys []uint64) []page.RID {
	rids := make([]page.RID, len(keys))
	for i, k := range keys {
		rids[i] = ridFor(k)
	}
	return rids
}

// TestInsertRunDuplicate: a key the tree holds, or one the run repeats,
// stops the run with ErrDuplicate, with the keys before it inserted and
// the rest not; a run that descends is refused before it inserts any.
func TestInsertRunDuplicate(t *testing.T) {
	db := testDB(t)
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		if tree, err = Create(tx, "pk"); err != nil {
			return err
		}
		return tree.InsertRun(tx, []uint64{10, 20, 30}, ridsFor([]uint64{10, 20, 30}))
	})
	update(t, db, func(tx *engine.Tx) error {
		for _, c := range []struct {
			run, after []uint64
		}{
			{[]uint64{11, 12, 20, 21}, []uint64{10, 11, 12, 20, 30}},
			{[]uint64{13, 14, 14, 15}, []uint64{10, 11, 12, 13, 14, 20, 30}},
		} {
			if err := tree.InsertRun(tx, c.run, ridsFor(c.run)); !errors.Is(err, ErrDuplicate) {
				t.Errorf("InsertRun(%v): %v, want ErrDuplicate", c.run, err)
			}
			checkModel(t, tx, tree, c.after)
		}
		if err := tree.InsertRun(tx, []uint64{40, 35}, ridsFor([]uint64{40, 35})); err == nil || errors.Is(err, ErrDuplicate) {
			t.Errorf("a descending run: %v, want a refusal", err)
		}
		checkModel(t, tx, tree, []uint64{10, 11, 12, 13, 14, 20, 30})
		return nil
	})
}

// TestSetOperationsSurviveCrash: restart redoes a committed transaction's
// InsertMany, InsertRun and UpdateEach, and undoes a loser's, whose
// records reached the log before the crash: the rows, the index and the
// tree's structure (Check) are the winner's.  Both transactions' runs
// split leaves and grow the table, and the loser's updates are of the
// winner's rows.
func TestSetOperationsSurviveCrash(t *testing.T) {
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
	var (
		tbl  *heap.Table
		tree *Tree
	)
	update(t, db, func(tx *engine.Tx) (err error) {
		if tbl, err = heap.Create(tx, "order_line"); err != nil {
			return err
		}
		tree, err = Create(tx, "order_line_pk")
		return err
	})
	row := func(k uint64, v byte) []byte {
		r := make([]byte, 56)
		binary.LittleEndian.PutUint64(r, k)
		r[8] = v
		return r
	}
	// insert adds the rows and index entries of keys lo, lo+step, ... below
	// hi, with value v, and returns their RIDs.
	insert := func(tx *engine.Tx, lo, hi, step uint64, v byte) ([]page.RID, error) {
		var keys []uint64
		var recs [][]byte
		for k := lo; k < hi; k += step {
			keys = append(keys, k)
			recs = append(recs, row(k, v))
		}
		rids := make([]page.RID, len(keys))
		for i := 0; i < len(recs); {
			n, err := tbl.InsertMany(tx, recs[i:], rids[i:])
			if err != nil {
				return nil, err
			}
			i += n
		}
		return rids, tree.InsertRun(tx, keys, rids)
	}
	bump := func(v byte) func(int, []byte) error {
		return func(_ int, r []byte) error {
			r[8] = v
			return nil
		}
	}

	// The winner: two leaves' worth of keys in order, then a run into their
	// gaps across a full leaf, and an update of every other row.
	var won []page.RID
	update(t, db, func(tx *engine.Tx) error {
		a, err := insert(tx, 10, 10*(2*MaxLeafEntries+1), 10, 1)
		if err != nil {
			return err
		}
		b, err := insert(tx, 15, 10*(MaxLeafEntries+20), 10, 1)
		if err != nil {
			return err
		}
		won = append(a, b...)
		var every []page.RID
		for i := 0; i < len(won); i += 2 {
			every = append(every, won[i])
		}
		return tbl.UpdateEach(tx, every, bump(2))
	})
	want := map[uint64]byte{}
	for k := uint64(10); k < 10*(2*MaxLeafEntries+1); k += 10 {
		want[k] = 1
	}
	for k := uint64(15); k < 10*(MaxLeafEntries+20); k += 10 {
		want[k] = 1
	}
	if err := db.View(context.Background(), func(tx *engine.Tx) error {
		for i := 0; i < len(won); i += 2 {
			if err := tbl.Get(tx, won[i], func(r []byte) error {
				want[binary.LittleEndian.Uint64(r)] = r[8]
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The loser: more rows and keys, again across a full leaf, and an
	// update of all the winner's rows, forced to the log.  The crash comes
	// while it is still open.
	errCrash := errors.New("crash image taken")
	image := make([][][]byte, len(devs))
	err = db.Update(context.Background(), func(loser *engine.Tx) error {
		if _, err := insert(loser, 17, 10*(2*MaxLeafEntries), 10, 3); err != nil {
			return err
		}
		if _, err := insert(loser, 10*(2*MaxLeafEntries+1), 10*(3*MaxLeafEntries), 10, 3); err != nil {
			return err
		}
		if err := tbl.UpdateEach(loser, won, bump(4)); err != nil {
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
	pages := tbl.Pages()
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
	tbl = heap.Attach(tbl.Name(), pages)
	tree = Attach(tree.Name(), tree.Root())
	if err := db2.View(context.Background(), func(tx *engine.Tx) error {
		if _, err := tree.Check(tx); err != nil {
			return err
		}
		rows := 0
		if err := tbl.Scan(tx, func(_ page.RID, r []byte) error {
			k := binary.LittleEndian.Uint64(r)
			if v, ok := want[k]; !ok || r[8] != v {
				return fmt.Errorf("after restart the row of key %d holds %d, want %d (present %v)", k, r[8], v, ok)
			}
			rows++
			return nil
		}); err != nil {
			return err
		}
		if rows != len(want) {
			return fmt.Errorf("after restart the table holds %d rows, want %d", rows, len(want))
		}
		keys := 0
		if err := tree.Scan(tx, 0, 1<<62, func(k uint64, rid page.RID) error {
			keys++
			if _, ok := want[k]; !ok {
				return fmt.Errorf("after restart the index holds the loser's key %d", k)
			}
			return tbl.Get(tx, rid, func(r []byte) error {
				if binary.LittleEndian.Uint64(r) != k {
					return fmt.Errorf("after restart key %d points at the row of %d", k, binary.LittleEndian.Uint64(r))
				}
				return nil
			})
		}); err != nil {
			return err
		}
		if keys != len(want) {
			return fmt.Errorf("after restart the index holds %d keys, want %d", keys, len(want))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
