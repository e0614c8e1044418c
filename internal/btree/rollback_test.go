package btree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/heap"
	"github.com/reprolab/face/internal/page"
)

// The hard cases of rolling back logged operations, each checked twice:
// after the rollback at runtime, and after a crash that follows it, where
// restart redoes the update records and their compensation records on the
// pages as they were before the transaction.  Both times every byte the
// pages use must be as before the transaction, the restarted pages must be
// the runtime's byte for byte, and the trees must pass Check.

var errRolledBack = errors.New("rolled back")

// rollbackCase sets up a database with setup, checkpoints it, runs op in a
// transaction that then rolls back, and checks the pages pages returns as
// above and the trees with check, which runs Tree.Check on them.
func rollbackCase(t *testing.T, setup func(tx *engine.Tx) error, op func(tx *engine.Tx) error,
	pages func() []page.ID, check func(tx *engine.Tx) error) {
	t.Helper()
	// The buffer holds the largest tree of the cases, so no page the
	// rollback changed is written out before the crash, and restart redoes
	// the rollback.
	cfg := engine.Config{
		DataDev:     device.New("data", device.ProfileCheetah15K, 16384),
		LogDev:      device.New("log", device.ProfileCheetah15K, 32768),
		BufferPages: 1024,
		Policy:      engine.PolicyNone,
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	update(t, db, setup)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := pageImages(t, db, pages())
	if err := db.Update(context.Background(), func(tx *engine.Tx) error {
		if err := op(tx); err != nil {
			return err
		}
		return errRolledBack
	}); !errors.Is(err, errRolledBack) {
		t.Fatalf("the transaction: %v", err)
	}
	runtime := pageImages(t, db, pages())
	same := func(when string, db *engine.DB, got []page.Buf) {
		t.Helper()
		for i, img := range got {
			if err := sameUsedBytes(before[i], img); err != nil {
				t.Fatalf("%s: page %d: %v", when, pages()[i], err)
			}
		}
		if err := db.View(context.Background(), check); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	same("after the rollback", db, runtime)

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
	if rep := db2.RecoveryReport(); rep.RedoApplied == 0 || rep.UndoApplied != 0 || rep.LoserTxns != 0 {
		t.Fatalf("restart did not redo the rollback: %+v", rep.Report)
	}
	restarted := pageImages(t, db2, pages())
	same("after the crash", db2, restarted)
	for i := range restarted {
		if !bytes.Equal(restarted[i], runtime[i]) {
			t.Fatalf("page %d after restart is not the runtime's", pages()[i])
		}
	}
}

// pageImages returns copies of the pages, without the page LSN, checksum and
// cache stamp, which are not the transactions'.
func pageImages(t *testing.T, db *engine.DB, ids []page.ID) []page.Buf {
	t.Helper()
	var out []page.Buf
	if err := db.View(context.Background(), func(tx *engine.Tx) error {
		for _, id := range ids {
			if err := tx.Read(id, func(buf page.Buf) error {
				img := buf.Clone()
				clear(img[8:20])
				img.SetCacheStamp(0)
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

// sameUsedBytes reports the first byte that the page before uses and after
// does not hold.  A slotted page uses its header, its slot array, the cells
// of its live slots and, a record leaf, the high key and right sibling
// after the cells; any other page all of its bytes.
func sameUsedBytes(before, after page.Buf) error {
	used := [][2]int{{0, page.Size}}
	if t := before.Type(); t == page.TypeHeap || t == page.TypeRecordLeaf {
		used = [][2]int{{0, page.HeaderSize + page.SlotSize*before.SlotCount()}}
		if t == page.TypeRecordLeaf {
			used = append(used, [2]int{highOff, page.Size})
		}
		for i := range before.SlotCount() {
			if cell, err := before.Record(i); err == nil {
				off := int(binary.LittleEndian.Uint16(before[page.HeaderSize+page.SlotSize*i:]))
				used = append(used, [2]int{off, off + len(cell)})
			}
		}
	}
	for _, r := range used {
		for j := r[0]; j < r[1]; j++ {
			if before[j] != after[j] {
				return fmt.Errorf("byte %d of used range [%d, %d) is %#x, was %#x", j, r[0], r[1], after[j], before[j])
			}
		}
	}
	return nil
}

// leafOf returns the leaf of key.
func leafOf(t *testing.T, tx *engine.Tx, tree *Tree, key uint64) page.ID {
	t.Helper()
	var stack [maxDepth]page.ID
	_, leaf, err := tree.path(tx, key, stack[:0])
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// recValueOf returns a value of n bytes for key.
func recValueOf(key uint64, n int) []byte {
	return bytes.Repeat([]byte{byte(key), byte(key >> 8), 0xA5}, n)[:n]
}

// TestRollbackOfPutThatCompacts: a Put on a record leaf whose free space is
// scattered compacts the leaf before it inserts the record, and rolls back.
func TestRollbackOfPutThatCompacts(t *testing.T) {
	var tree *Tree
	var leaf page.ID
	rollbackCase(t, func(tx *engine.Tx) (err error) {
		if tree, err = CreateRecords(tx, "records"); err != nil {
			return err
		}
		for k := uint64(0); k < 12; k++ {
			if err := tree.Put(tx, k, recValueOf(k, 300)); err != nil {
				return err
			}
		}
		// Records in the middle of the cell area leave their space
		// scattered.
		for _, k := range []uint64{2, 5, 8} {
			if ok, err := tree.Remove(tx, k); err != nil || !ok {
				return fmt.Errorf("removing %d: %v %v", k, ok, err)
			}
		}
		leaf = leafOf(t, tx, tree, 0)
		return nil
	}, func(tx *engine.Tx) error {
		var free, room int
		if err := tx.Read(leaf, func(buf page.Buf) error {
			free, room = buf.FreeSpace(), recRoom(buf)
			return nil
		}); err != nil {
			return err
		}
		if size := recHeader + 600; free >= size || room < size {
			return fmt.Errorf("a record of %d bytes finds %d bytes free and %d once compacted", size, free, room)
		}
		return tree.Put(tx, 100, recValueOf(100, 600))
	}, func() []page.ID { return []page.ID{leaf} }, func(tx *engine.Tx) error {
		_, err := tree.Check(tx)
		return err
	})
}

// TestRollbackOfRemoveAfterOverwrite: a RemoveAt of the lowest cell of a
// record leaf, whose space is free at once, then a Put that takes that
// space and an overwrite of another record in place, all rolled back: the
// removed record's bytes come back from the log, not from the page.
func TestRollbackOfRemoveAfterOverwrite(t *testing.T) {
	var tree *Tree
	var leaf page.ID
	rollbackCase(t, func(tx *engine.Tx) (err error) {
		if tree, err = CreateRecords(tx, "records"); err != nil {
			return err
		}
		for k := uint64(0); k < 10; k++ {
			if err := tree.Put(tx, k, recValueOf(k, 100)); err != nil {
				return err
			}
		}
		leaf = leafOf(t, tx, tree, 0)
		return nil
	}, func(tx *engine.Tx) error {
		if ok, err := tree.Remove(tx, 9); err != nil || !ok {
			return fmt.Errorf("removing 9: %v %v", ok, err)
		}
		if err := tree.Put(tx, 20, recValueOf(20, 100)); err != nil {
			return err
		}
		return tree.Put(tx, 3, recValueOf(33, 90))
	}, func() []page.ID { return []page.ID{leaf} }, func(tx *engine.Tx) error {
		_, err := tree.Check(tx)
		return err
	})
}

// TestRollbackOfInsertMany: an InsertMany of many rows, which fills the
// table's last page and adds pages, with their index entries, rolls back.
func TestRollbackOfInsertMany(t *testing.T) {
	var (
		tbl  *heap.Table
		tree *Tree
	)
	row := func(k uint64) []byte {
		r := make([]byte, 70)
		binary.LittleEndian.PutUint64(r, k)
		copy(r[8:], recValueOf(k, 62))
		return r
	}
	insert := func(tx *engine.Tx, lo, hi uint64) error {
		var keys []uint64
		var recs [][]byte
		for k := lo; k < hi; k++ {
			keys = append(keys, k)
			recs = append(recs, row(k))
		}
		rids := make([]page.RID, len(recs))
		for i := 0; i < len(recs); {
			n, err := tbl.InsertMany(tx, recs[i:], rids[i:])
			if err != nil {
				return err
			}
			i += n
		}
		return tree.InsertRun(tx, keys, rids)
	}
	var pages []page.ID
	rollbackCase(t, func(tx *engine.Tx) (err error) {
		if tbl, err = heap.Create(tx, "rows"); err != nil {
			return err
		}
		if tree, err = Create(tx, "rows_pk"); err != nil {
			return err
		}
		if err := insert(tx, 0, 80); err != nil {
			return err
		}
		pages = append(tbl.Pages(), leafOf(t, tx, tree, 0), tree.Root())
		return nil
	}, func(tx *engine.Tx) error {
		if err := insert(tx, 1000, 1000+4*MaxLeafEntries); err != nil {
			return err
		}
		if n := tbl.NumPages(); n < 3 {
			return fmt.Errorf("the rows took %d pages", n)
		}
		return nil
	}, func() []page.ID { return pages }, func(tx *engine.Tx) error {
		_, err := tree.Check(tx)
		return err
	})
}
