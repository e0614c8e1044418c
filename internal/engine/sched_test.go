package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/reprolab/face/internal/page"
)

// schedDB opens a small FaCE+GSC database pre-loaded with n value pages.
func schedDB(t *testing.T, n int) (*DB, []page.ID) {
	t.Helper()
	r := newRig(t, PolicyFaCEGSC)
	db := r.open(t, false)
	t.Cleanup(func() { db.Close() })
	var ids []page.ID
	err := db.Update(context.Background(), func(tx *Tx) error {
		for i := 0; i < n; i++ {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			if err := tx.Modify(id, func(buf page.Buf) error {
				binary.LittleEndian.PutUint64(buf.Payload(), uint64(i))
				return nil
			}); err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, ids
}

func TestViewRejectsWrites(t *testing.T) {
	db, ids := schedDB(t, 4)
	err := db.View(context.Background(), func(tx *Tx) error {
		if !tx.ReadOnly() {
			t.Fatal("View transaction is not read-only")
		}
		if err := tx.Modify(ids[0], func(page.Buf) error { return nil }); !errors.Is(err, ErrConflict) {
			t.Fatalf("Modify in View: %v, want ErrConflict", err)
		}
		if _, err := tx.Alloc(page.TypeHeap); !errors.Is(err, ErrConflict) {
			t.Fatalf("Alloc in View: %v, want ErrConflict", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRollsBackOnError(t *testing.T) {
	db, ids := schedDB(t, 1)
	boom := fmt.Errorf("boom")
	err := db.Update(context.Background(), func(tx *Tx) error {
		if err := tx.Modify(ids[0], func(buf page.Buf) error {
			binary.LittleEndian.PutUint64(buf.Payload(), 999)
			return nil
		}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update error = %v, want boom", err)
	}
	err = db.View(context.Background(), func(tx *Tx) error {
		return tx.Read(ids[0], func(buf page.Buf) error {
			if got := binary.LittleEndian.Uint64(buf.Payload()); got != 0 {
				t.Fatalf("value after failed Update = %d, want 0", got)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellation(t *testing.T) {
	db, ids := schedDB(t, 1)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.View(cancelled, func(*Tx) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("View with cancelled context: %v", err)
	}
	if err := db.Update(cancelled, func(*Tx) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Update with cancelled context: %v", err)
	}

	// Cancellation during the closure rolls the transaction back at the
	// commit boundary.
	ctx, cancelMid := context.WithCancel(context.Background())
	err := db.Update(ctx, func(tx *Tx) error {
		if err := tx.Modify(ids[0], func(buf page.Buf) error {
			binary.LittleEndian.PutUint64(buf.Payload(), 4242)
			return nil
		}); err != nil {
			return err
		}
		cancelMid()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Update cancelled mid-closure: %v", err)
	}
	err = db.View(context.Background(), func(tx *Tx) error {
		return tx.Read(ids[0], func(buf page.Buf) error {
			if got := binary.LittleEndian.Uint64(buf.Payload()); got != 0 {
				t.Fatalf("value after cancelled Update = %d, want 0", got)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpdatePanicRollsBack(t *testing.T) {
	db, ids := schedDB(t, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Update")
			}
		}()
		db.Update(context.Background(), func(tx *Tx) error {
			tx.Modify(ids[0], func(buf page.Buf) error {
				binary.LittleEndian.PutUint64(buf.Payload(), 31337)
				return nil
			})
			panic("kaboom")
		})
	}()
	// The scheduler lock must have been released and the change undone.
	err := db.Update(context.Background(), func(tx *Tx) error {
		return tx.Read(ids[0], func(buf page.Buf) error {
			if got := binary.LittleEndian.Uint64(buf.Payload()); got != 0 {
				t.Fatalf("value after panicked Update = %d, want 0", got)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWritersMutuallyExclusive lets racing Updates mutate a plain variable
// that is protected only by the exclusive lock on the page they all write;
// the race detector fails the test if two writers of the page ever overlap.
func TestWritersMutuallyExclusive(t *testing.T) {
	db, ids := schedDB(t, 1)
	var unguarded int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				err := db.Update(context.Background(), func(tx *Tx) error {
					return tx.Modify(ids[0], func(buf page.Buf) error {
						unguarded++
						binary.LittleEndian.PutUint64(buf.Payload(), uint64(unguarded))
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if unguarded != 8*20 {
		t.Fatalf("unguarded counter = %d, want %d", unguarded, 8*20)
	}
}

func TestViewAfterCloseAndCrash(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.View(context.Background(), func(*Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("View after Close: %v", err)
	}

	db2 := r.open(t, false)
	db2.Crash()
	if err := db2.Update(context.Background(), func(*Tx) error { return nil }); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Update after Crash: %v", err)
	}
}
