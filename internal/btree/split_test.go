package btree

import (
	"fmt"
	"testing"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// evenKeys inserts n keys, lo, lo+step, ..., into the RID tree, in runs,
// and returns them.
func evenKeys(tx *engine.Tx, tree *Tree, lo, step uint64, n int) ([]uint64, error) {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = lo + uint64(i)*step
	}
	for first := 0; first < n; first += 4096 {
		run := keys[first:min(first+4096, n)]
		if err := tree.InsertRun(tx, run, ridsFor(run)); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// TestRIDLeafSplitLogsNewLeafOnce: a split of a full RID leaf in the middle
// logs three records, the new leaf, the cut leaf and the parent, and the
// new leaf's one record carries its half of the entries without before
// images.
func TestRIDLeafSplitLogsNewLeafOnce(t *testing.T) {
	db := putRunDB(t)
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		if tree, err = Create(tx, "t"); err != nil {
			return err
		}
		_, err = evenKeys(tx, tree, 0, 2, MaxLeafEntries)
		return err
	})
	mark := db.Log().Next()
	update(t, db, func(tx *engine.Tx) error { return tree.Insert(tx, 1, ridFor(1)) })
	var recs []*wal.Record
	if err := db.Log().Iterate(mark, func(r *wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].Type != wal.TypeFormat || recs[3].Type != wal.TypeCommit {
		t.Fatalf("the split logged %d records, want a format record, two updates and the commit: %v", len(recs), recs)
	}
	for _, r := range recs[1:3] {
		if r.Type != wal.TypeUpdate || r.PageID == recs[0].PageID {
			t.Fatalf("record %s of page %d after the new leaf's, want updates of other pages", r.Type, r.PageID)
		}
	}
	if n := len(recs[0].Ops); n > 1300 {
		t.Errorf("the new leaf logged %d operation bytes, want at most 1300", n)
	}
	t.Logf("the new leaf logged %d operation bytes", len(recs[0].Ops))
}

// TestAbortAfterSplit: a transaction that splits a node of each kind and
// then rolls back leaves every committed key where it was and the tree
// whole, at runtime and after a crash that redoes the rollback.  The new
// node is never undone: undoing the links to it orphans it.
func TestAbortAfterSplit(t *testing.T) {
	var (
		tree  *Tree
		keys  []uint64
		pages []page.ID
	)
	// shape records the tree's pages once the committed keys are in.
	shape := func(tx *engine.Tx) error {
		s, err := tree.Check(tx)
		pages = append(s.Leaves, tree.Root())
		return err
	}
	holds := func(tx *engine.Tx) error {
		checkModel(t, tx, tree, keys)
		return nil
	}
	// splits runs insert and fails unless the tree then has the shape that
	// the split asked for gives it.
	splits := func(insert func(tx *engine.Tx) error, want func(s Shape) bool) func(tx *engine.Tx) error {
		return func(tx *engine.Tx) error {
			if err := insert(tx); err != nil {
				return err
			}
			s, err := tree.Check(tx)
			if err == nil && !want(s) {
				err = fmt.Errorf("no split: levels %v", s.Levels)
			}
			return err
		}
	}
	insert := func(k uint64) func(tx *engine.Tx) error {
		return func(tx *engine.Tx) error { return tree.Insert(tx, k, ridFor(k)) }
	}
	ridTree := func(n int, step uint64) func(tx *engine.Tx) error {
		return func(tx *engine.Tx) (err error) {
			if tree, err = Create(tx, "t"); err != nil {
				return err
			}
			if keys, err = evenKeys(tx, tree, 0, step, n); err != nil {
				return err
			}
			return shape(tx)
		}
	}

	t.Run("rid leaf", func(t *testing.T) {
		rollbackCase(t, ridTree(MaxLeafEntries, 2),
			splits(insert(1), func(s Shape) bool { return len(s.Leaves) == 2 }),
			func() []page.ID { return pages }, holds)
	})
	t.Run("record leaf", func(t *testing.T) {
		model := map[uint64][]byte{}
		rollbackCase(t, func(tx *engine.Tx) (err error) {
			if tree, err = CreateRecords(tx, "t"); err != nil {
				return err
			}
			keys = nil
			var vals [][]byte
			for k := uint64(0); k < 56; k += 2 {
				keys, vals = append(keys, k), append(vals, putValue(k, 0, 128))
				model[k] = vals[len(vals)-1]
			}
			if err := tree.PutRun(tx, keys, vals); err != nil {
				return err
			}
			return shape(tx)
		}, splits(func(tx *engine.Tx) error { return tree.Put(tx, 11, putValue(11, 1, 128)) },
			func(s Shape) bool { return len(s.Leaves) == 2 }),
			func() []page.ID { return pages }, func(tx *engine.Tx) error {
				if _, err := tree.Check(tx); err != nil {
					return err
				}
				return checkRecords(tx, tree, model)
			})
	})
	t.Run("inner node", func(t *testing.T) {
		// The committed keys split the root once and leave its first
		// child full, so a split of its first leaf splits that child.
		rollbackCase(t, ridTree(deepAscending, 2),
			splits(insert(1), func(s Shape) bool { return len(s.Levels) == 3 && len(s.Levels[1]) == 3 }),
			func() []page.ID { return pages }, holds)
	})
	t.Run("root", func(t *testing.T) {
		// The committed keys fill the root, so the next splits it.
		n := (MaxInnerEntries + 1) * MaxLeafEntries
		rollbackCase(t, ridTree(n, 1),
			splits(insert(uint64(n)), func(s Shape) bool { return len(s.Levels) == 3 }),
			func() []page.ID { return pages }, holds)
	})
}
