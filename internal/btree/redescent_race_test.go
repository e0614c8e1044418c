//go:build race

package btree

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// TestFailedLockAncestorsGivesBackItsLocks drives one writer, A, into a
// failed check of the ancestors it locked, holds it at the race build's
// scheduling point before its next descent, and runs a second writer, B,
// through the node A found stale.  A changed nothing under the locks it
// took for the check, so B must not wait for them: a writer that keeps
// them through its next descent, which peeks top down, closes a deadlock
// with any writer that splits below them and then locks upwards.
//
// The tree is a record tree of 900-byte values, four to a leaf, loaded in
// key order until its root is at level 2 over a full level-1 node P.  A
// waits for P's last leaf L, which is full, behind C, which holds L and
// then splits P's first leaf: P, being full, splits in the middle, and L
// moves to P's new right sibling.  When A gets L it finds it full, locks P
// to split L, and finds that P no longer holds L.
func TestFailedLockAncestorsGivesBackItsLocks(t *testing.T) {
	const valueSize = 900
	db := testDB(t)
	ctx := context.Background()
	value := func(k uint64) []byte {
		v := make([]byte, valueSize)
		for i := range v {
			v[i] = byte(k) + byte(i)
		}
		return v
	}
	var tree *Tree
	update(t, db, func(tx *engine.Tx) (err error) {
		tree, err = CreateRecords(tx, "redescent")
		return err
	})
	var modelMu sync.Mutex
	model := map[uint64]bool{}
	put := func(tx *engine.Tx, k uint64) error {
		modelMu.Lock()
		model[k] = true
		modelMu.Unlock()
		return tree.Put(tx, k, value(k))
	}
	// Even keys in order, until the root is at level 2 over a full node
	// and one more.
	for k := uint64(2); k <= 2*4*(MaxInnerEntries+8); k += 2 {
		update(t, db, func(tx *engine.Tx) error { return put(tx, k) })
	}

	var (
		parent, first, last page.ID
		firstKey, lastKey   uint64
	)
	update(t, db, func(tx *engine.Tx) error {
		if err := tx.Read(tree.Root(), func(buf page.Buf) error {
			if innerLevel(buf) != 2 {
				return fmt.Errorf("root at level %d, want 2", innerLevel(buf))
			}
			parent = innerChild(buf, 0)
			return nil
		}); err != nil {
			return err
		}
		if err := tx.Read(parent, func(buf page.Buf) error {
			if n := nodeCount(buf); n != MaxInnerEntries {
				return fmt.Errorf("the root's first child holds %d keys, want a full node (%d)", n, MaxInnerEntries)
			}
			first, last = innerChild(buf, 0), innerChild(buf, MaxInnerEntries)
			return nil
		}); err != nil {
			return err
		}
		if err := tx.Read(first, func(buf page.Buf) error {
			firstKey = recKey(buf, 0)
			return nil
		}); err != nil {
			return err
		}
		return tx.Read(last, func(buf page.Buf) error {
			lastKey = recKey(buf, 0)
			return nil
		})
	})

	var (
		cHolds  = make(chan struct{})
		aWaits  = make(chan struct{})
		paused  = make(chan struct{})
		resume  = make(chan struct{})
		pauseA  sync.Once
		results = make(chan error, 2)
	)
	setPauseBeforeRedescent(func(*engine.Tx) {
		pauseA.Do(func() {
			close(paused)
			<-resume
		})
	})
	t.Cleanup(func() { setPauseBeforeRedescent(nil) })

	// C takes L, by overwriting its first record in place, and once A
	// waits for L, splits P's first leaf and with it P.
	go func() {
		results <- db.Update(ctx, func(tx *engine.Tx) error {
			if err := tree.Put(tx, lastKey, value(lastKey)); err != nil {
				return err
			}
			close(cHolds)
			<-aWaits
			return put(tx, firstKey+1)
		})
	}()
	<-cHolds
	waits := db.Snapshot().Locks.Waits
	aDone := make(chan error, 1)
	go func() {
		aDone <- db.Update(ctx, func(tx *engine.Tx) error {
			return put(tx, lastKey+1)
		})
	}()
	for deadline := time.Now().Add(10 * time.Second); db.Snapshot().Locks.Waits == waits; {
		if time.Now().After(deadline) {
			t.Fatal("A never queued for L behind C")
		}
		time.Sleep(time.Millisecond)
	}
	close(aWaits)
	if err := <-results; err != nil {
		t.Fatalf("C: %v", err)
	}
	select {
	case <-paused:
	case <-time.After(10 * time.Second):
		t.Fatal("A's check of the ancestors it locked never failed")
	}

	// B splits P's second leaf, which is full: it peeks at P on its way
	// down and then locks it.
	bctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	bErr := db.Update(bctx, func(tx *engine.Tx) error {
		return put(tx, firstKey+4*2+1)
	})
	close(resume)
	if err := <-aDone; err != nil {
		t.Fatalf("A: %v", err)
	}
	if errors.Is(bErr, context.DeadlineExceeded) {
		t.Fatalf("B waited for a node A locked to check it, changed nothing in, and kept through its next descent: %v", bErr)
	}
	if bErr != nil {
		t.Fatalf("B: %v", bErr)
	}

	update(t, db, func(tx *engine.Tx) error {
		s, err := tree.Check(tx)
		if err != nil {
			return err
		}
		if len(s.Levels) != 3 {
			return fmt.Errorf("the tree has %d levels, want 3", len(s.Levels))
		}
		n := 0
		err = tree.ScanRecords(tx, 0, ^uint64(0), func(k uint64, v []byte) error {
			if !model[k] || string(v) != string(value(k)) {
				return fmt.Errorf("key %d holds %d bytes that were not put there", k, len(v))
			}
			n++
			return nil
		})
		if err == nil && n != len(model) {
			err = fmt.Errorf("the tree holds %d records, the model %d", n, len(model))
		}
		return err
	})
}
