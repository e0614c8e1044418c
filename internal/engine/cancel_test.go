package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/page"
)

// These tests pin down per-request cancellation end to end: a cancelled
// or deadline-expired context must abort a transaction whether it is
// waiting in a lock queue, between page operations, or about to commit —
// releasing its locks and leaving the group-commit protocol healthy.

// TestCancelWaiterReleasesLocks cancels a writer queued behind a held
// exclusive lock and checks that (a) it returns the context error, (b)
// the locks it did acquire are released, and (c) the holder and a fresh
// writer proceed unharmed.
func TestCancelWaiterReleasesLocks(t *testing.T) {
	db, ids := schedDB2PL(t, 2, 4)

	hold := make(chan struct{})
	holding := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		holderDone <- db.Update(context.Background(), func(tx *Tx) error {
			if err := tx.Modify(ids[0], func(buf page.Buf) error {
				buf.Payload()[0] = 1
				return nil
			}); err != nil {
				return err
			}
			close(holding)
			<-hold
			return nil
		})
	}()
	<-holding

	// The victim takes ids[1] exclusively, then queues on ids[0].
	ctx, cancel := context.WithCancel(context.Background())
	victimDone := make(chan error, 1)
	go func() {
		victimDone <- db.Update(ctx, func(tx *Tx) error {
			if err := tx.Modify(ids[1], func(buf page.Buf) error {
				buf.Payload()[0] = 2
				return nil
			}); err != nil {
				return err
			}
			return tx.Modify(ids[0], func(buf page.Buf) error {
				buf.Payload()[0] = 3
				return nil
			})
		})
	}()

	// Wait until the victim is actually parked in the lock queue.
	deadline := time.Now().Add(5 * time.Second)
	for db.locks.Stats().Waits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never queued on the held lock")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-victimDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}

	// ids[1] must be free again: a writer with a fresh context takes it
	// without waiting on the dead victim.
	thirdDone := make(chan error, 1)
	go func() {
		thirdDone <- db.Update(context.Background(), func(tx *Tx) error {
			return tx.Modify(ids[1], func(buf page.Buf) error {
				buf.Payload()[0] = 4
				return nil
			})
		})
	}()
	select {
	case err := <-thirdDone:
		if err != nil {
			t.Fatalf("writer after cancelled victim: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled victim did not release its locks")
	}

	close(hold)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if got := db.locks.Stats().Cancels; got == 0 {
		t.Fatal("lock manager recorded no cancelled waits")
	}
	// The victim's buffered write on ids[1] was rolled back.
	err := db.View(context.Background(), func(tx *Tx) error {
		return tx.Read(ids[1], func(buf page.Buf) error {
			if buf.Payload()[0] != 4 {
				t.Fatalf("ids[1] payload = %d, want the post-cancel writer's 4", buf.Payload()[0])
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCancelDoesNotWedgeGroupCommit mixes committing writers with
// writers cancelled mid-wait.  The WAL's syncer counts registered
// committers when it gathers a round; a cancelled transaction that exited
// without deregistering must not keep later commits from completing.
func TestCancelDoesNotWedgeGroupCommit(t *testing.T) {
	db, ids := schedDB2PL(t, 4, 8)

	const rounds = 20
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		// Half the writers get a context that dies almost immediately.
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := context.Background()
				if w%2 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(w)*100*time.Microsecond)
					defer cancel()
				}
				_, err := retryUpdate(ctx, db, func(tx *Tx) error {
					return tx.Modify(ids[w%len(ids)], func(buf page.Buf) error {
						buf.Payload()[w%64]++
						return nil
					})
				})
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("writer %d: %v", w, err)
				}
			}(w)
		}
		wg.Wait()
	}

	// The log's commit path must still complete promptly.
	done := make(chan error, 1)
	go func() {
		done <- db.Update(context.Background(), func(tx *Tx) error {
			return tx.Modify(ids[0], func(buf page.Buf) error {
				buf.Payload()[70] = 1
				return nil
			})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit after cancellation storm: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("group commit wedged after cancelled writers")
	}
}

// TestCancelDeadlineStopsClosure runs a long closure under a short
// deadline: the per-operation context check must stop it at the next
// page operation, and the whole transaction must roll back.
func TestCancelDeadlineStopsClosure(t *testing.T) {
	db, ids := schedDB2PL(t, 1, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ops := 0
	err := db.Update(ctx, func(tx *Tx) error {
		for {
			if err := tx.Modify(ids[0], func(buf page.Buf) error {
				buf.Payload()[0]++
				return nil
			}); err != nil {
				return err
			}
			ops++
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-bound closure = %v, want context.DeadlineExceeded", err)
	}
	if ops == 0 {
		t.Fatal("closure never ran before the deadline")
	}
	// Everything it modified was rolled back.
	err = db.View(context.Background(), func(tx *Tx) error {
		return tx.Read(ids[0], func(buf page.Buf) error {
			if buf.Payload()[0] != 0 {
				t.Fatalf("payload = %d after rollback, want 0", buf.Payload()[0])
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCancelViewStopsReads: the same per-operation check applies to
// read-only transactions, whose Reads otherwise hold shared locks for as
// long as the closure keeps running.
func TestCancelViewStopsReads(t *testing.T) {
	db, ids := schedDB2PL(t, 1, 2)

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- db.View(ctx, func(tx *Tx) error {
			for {
				if err := tx.Read(ids[0], func(page.Buf) error { return nil }); err != nil {
					return err
				}
				once.Do(func() { close(started) })
			}
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled View = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled View kept reading")
	}

	// Its shared lock is gone: an exclusive writer gets through.
	werr := db.Update(context.Background(), func(tx *Tx) error {
		return tx.Modify(ids[0], func(buf page.Buf) error {
			buf.Payload()[0] = 9
			return nil
		})
	})
	if werr != nil {
		t.Fatalf("writer after cancelled View: %v", werr)
	}
}
