package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// schedDB2PL opens a database with the given writer cap, pre-loaded with n
// value pages.
func schedDB2PL(t *testing.T, n int, maxWriters int) (*DB, []page.ID) {
	t.Helper()
	r := newRig(t, PolicyFaCEGSC)
	r.cfg.MaxWriters = maxWriters
	db := r.open(t, false)
	t.Cleanup(func() { db.Close() })
	var ids []page.ID
	err := db.Update(context.Background(), func(tx *Tx) error {
		for i := 0; i < n; i++ {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
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

// retryUpdate runs an Update, retrying while it is refused with
// ErrDeadlock, and returns the number of deadlock retries.  Retries back
// off briefly so a transaction whose lock order opposes the prevailing
// traffic is not re-victimized forever by a continuous stream of
// conflicting peers.
func retryUpdate(ctx context.Context, db *DB, fn func(*Tx) error) (int, error) {
	retries := 0
	for {
		err := db.Update(ctx, fn)
		if !errors.Is(err, ErrDeadlock) {
			return retries, err
		}
		retries++
		backoff := time.Duration(retries) * 50 * time.Microsecond
		if backoff > 2*time.Millisecond {
			backoff = 2 * time.Millisecond
		}
		time.Sleep(backoff)
	}
}

// TestPageLockWritersOverlap proves Update transactions really run
// concurrently: two writers on disjoint pages must both be inside their
// closures at the same time.
func TestPageLockWritersOverlap(t *testing.T) {
	db, ids := schedDB2PL(t, 2, 0)
	var (
		here  = make(chan struct{})
		there = make(chan struct{})
		wg    sync.WaitGroup
		errs  = make(chan error, 2)
	)
	meet := func(own page.ID, arrive, wait chan struct{}) {
		defer wg.Done()
		errs <- db.Update(context.Background(), func(tx *Tx) error {
			if err := tx.Modify(own, func(buf page.Buf) error {
				binary.LittleEndian.PutUint64(buf.Payload(), 1)
				return nil
			}); err != nil {
				return err
			}
			close(arrive)
			select {
			case <-wait:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("peer never entered its closure: writers are serialized")
			}
		})
	}
	wg.Add(2)
	go meet(ids[0], here, there)
	go meet(ids[1], there, here)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPageLockDeadlockExactlyOneVictim forces the classic AB/BA cycle
// through real transactions: exactly one Update must be refused with
// ErrDeadlock (and roll back), the other must commit, and the victim must
// succeed on retry.
func TestPageLockDeadlockExactlyOneVictim(t *testing.T) {
	db, ids := schedDB2PL(t, 2, 0)
	a, b := ids[0], ids[1]
	set := func(tx *Tx, id page.ID, v uint64) error {
		return tx.Modify(id, func(buf page.Buf) error {
			binary.LittleEndian.PutUint64(buf.Payload(), v)
			return nil
		})
	}

	haveA := make(chan struct{})
	haveB := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- db.Update(context.Background(), func(tx *Tx) error {
			if err := set(tx, a, 11); err != nil {
				return err
			}
			close(haveA)
			<-haveB
			return set(tx, b, 12)
		})
	}()
	go func() {
		defer wg.Done()
		errs <- db.Update(context.Background(), func(tx *Tx) error {
			if err := set(tx, b, 21); err != nil {
				return err
			}
			close(haveB)
			<-haveA
			return set(tx, a, 22)
		})
	}()
	wg.Wait()
	close(errs)

	var deadlocks, committed int
	for err := range errs {
		switch {
		case err == nil:
			committed++
		case errors.Is(err, ErrDeadlock):
			deadlocks++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks != 1 || committed != 1 {
		t.Fatalf("deadlocks=%d committed=%d, want exactly one of each", deadlocks, committed)
	}
	snap := db.Snapshot()
	if snap.Locks.Deadlocks != 1 {
		t.Fatalf("Snapshot.Locks.Deadlocks = %d, want 1", snap.Locks.Deadlocks)
	}
	if snap.Locks.Waits == 0 {
		t.Fatal("Snapshot.Locks.Waits = 0, want a blocked waiter")
	}

	// The victim rolled back cleanly: both pages carry the winner's
	// values, not a mix, and a retry of the losing pattern commits.
	if err := db.View(context.Background(), func(tx *Tx) error {
		var va, vb uint64
		if err := tx.Read(a, func(buf page.Buf) error { va = binary.LittleEndian.Uint64(buf.Payload()); return nil }); err != nil {
			return err
		}
		if err := tx.Read(b, func(buf page.Buf) error { vb = binary.LittleEndian.Uint64(buf.Payload()); return nil }); err != nil {
			return err
		}
		ok := (va == 11 && vb == 12) || (va == 22 && vb == 21)
		if !ok {
			t.Fatalf("post-deadlock state mixes transactions: a=%d b=%d", va, vb)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := retryUpdate(context.Background(), db, func(tx *Tx) error {
		if err := set(tx, a, 31); err != nil {
			return err
		}
		return set(tx, b, 32)
	}); err != nil {
		t.Fatalf("retry after deadlock: %v", err)
	}
}

// TestPageLockUpgradeStorm: every writer reads the counter page (shared
// lock) and then increments it (upgrade to exclusive).  Deadlock victims
// retry; no increment may be lost.
func TestPageLockUpgradeStorm(t *testing.T) {
	db, ids := schedDB2PL(t, 1, 0)
	ctr := ids[0]
	const writers = 8
	const perWriter = 10

	var wg sync.WaitGroup
	var deadlockRetries atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				retries, err := retryUpdate(context.Background(), db, func(tx *Tx) error {
					var cur uint64
					if err := tx.Read(ctr, func(buf page.Buf) error {
						cur = binary.LittleEndian.Uint64(buf.Payload())
						return nil
					}); err != nil {
						return err
					}
					return tx.Modify(ctr, func(buf page.Buf) error {
						binary.LittleEndian.PutUint64(buf.Payload(), cur+1)
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
				deadlockRetries.Add(int64(retries))
			}
		}()
	}
	wg.Wait()

	if err := db.View(context.Background(), func(tx *Tx) error {
		return tx.Read(ctr, func(buf page.Buf) error {
			if got := binary.LittleEndian.Uint64(buf.Payload()); got != writers*perWriter {
				t.Fatalf("counter = %d, want %d (lost updates)", got, writers*perWriter)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if snap.Locks.Upgrades == 0 {
		t.Fatalf("no upgrades recorded: %+v", snap.Locks)
	}
	if snap.Committed < writers*perWriter {
		t.Fatalf("committed %d < %d", snap.Committed, writers*perWriter)
	}
}

// TestPageLockCancellationUnblocksQueuedWriter: a writer queued on a page
// lock must unblock promptly when its context is cancelled, and the lock
// holder must be unaffected.
func TestPageLockCancellationUnblocksQueuedWriter(t *testing.T) {
	db, ids := schedDB2PL(t, 1, 0)
	id := ids[0]

	holding := make(chan struct{})
	release := make(chan struct{})
	holder := make(chan error, 1)
	go func() {
		holder <- db.Update(context.Background(), func(tx *Tx) error {
			if err := tx.Modify(id, func(buf page.Buf) error {
				binary.LittleEndian.PutUint64(buf.Payload(), 7)
				return nil
			}); err != nil {
				return err
			}
			close(holding)
			<-release
			return nil
		})
	}()
	<-holding

	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	go func() {
		blocked <- db.Update(ctx, func(tx *Tx) error {
			return tx.Modify(id, func(buf page.Buf) error {
				binary.LittleEndian.PutUint64(buf.Payload(), 8)
				return nil
			})
		})
	}()
	// Give the second writer time to queue on the page lock, then cancel.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled writer returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled writer stayed blocked on the page lock")
	}

	close(release)
	if err := <-holder; err != nil {
		t.Fatalf("holder: %v", err)
	}
	snap := db.Snapshot()
	if snap.Locks.Cancels == 0 {
		t.Fatalf("no cancelled waits recorded: %+v", snap.Locks)
	}
	// The holder's value survived; the cancelled writer left nothing.
	if err := db.View(context.Background(), func(tx *Tx) error {
		return tx.Read(id, func(buf page.Buf) error {
			if got := binary.LittleEndian.Uint64(buf.Payload()); got != 7 {
				t.Fatalf("value = %d, want the holder's 7", got)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPageLockSerializableTransfers moves value between two pages from
// many writers while Views verify the invariant (the sum is constant) —
// shared page locks give readers a consistent multi-page snapshot.
func TestPageLockSerializableTransfers(t *testing.T) {
	db, ids := schedDB2PL(t, 2, 0)
	a, b := ids[0], ids[1]
	const total = 1000

	if _, err := retryUpdate(context.Background(), db, func(tx *Tx) error {
		return tx.Modify(a, func(buf page.Buf) error {
			binary.LittleEndian.PutUint64(buf.Payload(), total)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}

	var writers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				// Random lock order provokes deadlocks on purpose.
				src, dst := a, b
				if rng.Intn(2) == 0 {
					src, dst = b, a
				}
				amount := uint64(rng.Intn(5))
				_, err := retryUpdate(context.Background(), db, func(tx *Tx) error {
					var have uint64
					if err := tx.Read(src, func(buf page.Buf) error {
						have = binary.LittleEndian.Uint64(buf.Payload())
						return nil
					}); err != nil {
						return err
					}
					move := amount
					if move > have {
						move = have
					}
					if err := tx.Modify(src, func(buf page.Buf) error {
						binary.LittleEndian.PutUint64(buf.Payload(), have-move)
						return nil
					}); err != nil {
						return err
					}
					return tx.Modify(dst, func(buf page.Buf) error {
						v := binary.LittleEndian.Uint64(buf.Payload())
						binary.LittleEndian.PutUint64(buf.Payload(), v+move)
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}

	viewErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				viewErr <- nil
				return
			case <-time.After(200 * time.Microsecond):
				// Pace the verifier: a reader re-acquiring the pages in a
				// tight loop would keep re-victimizing writers whose lock
				// order opposes it.
			}
			err := db.View(context.Background(), func(tx *Tx) error {
				var va, vb uint64
				if err := tx.Read(a, func(buf page.Buf) error { va = binary.LittleEndian.Uint64(buf.Payload()); return nil }); err != nil {
					return err
				}
				if err := tx.Read(b, func(buf page.Buf) error { vb = binary.LittleEndian.Uint64(buf.Payload()); return nil }); err != nil {
					return err
				}
				if va+vb != total {
					t.Errorf("invariant broken: %d + %d != %d", va, vb, total)
				}
				return nil
			})
			if err != nil && !errors.Is(err, ErrDeadlock) {
				viewErr <- err
				return
			}
		}
	}()

	// Wait for the writers, then stop the verifying reader.
	writers.Wait()
	close(stop)
	if err := <-viewErr; err != nil {
		t.Fatal(err)
	}
}

// TestPageLockMaxWriters bounds writer admission: with MaxWriters=1 two
// Update closures must never overlap even though page locks alone would
// admit them together.
func TestPageLockMaxWriters(t *testing.T) {
	db, ids := schedDB2PL(t, 2, 1)
	var inside, maxInside atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(own page.ID) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				err := db.Update(context.Background(), func(tx *Tx) error {
					now := inside.Add(1)
					defer inside.Add(-1)
					for {
						seen := maxInside.Load()
						if now <= seen || maxInside.CompareAndSwap(seen, now) {
							break
						}
					}
					return tx.Modify(own, func(buf page.Buf) error {
						binary.LittleEndian.PutUint64(buf.Payload(), uint64(i))
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(ids[w%2])
	}
	wg.Wait()
	if maxInside.Load() != 1 {
		t.Fatalf("max concurrent writers = %d, want 1", maxInside.Load())
	}
}

// heldSyncDev is a log device with a durability barrier the test can hold:
// while held, every Sync blocks until release.
type heldSyncDev struct {
	*device.Device
	gate sync.RWMutex
}

func (d *heldSyncDev) Sync() error {
	d.gate.RLock()
	d.gate.RUnlock()
	return nil
}

// TestPageLockGroupCommitBatching: concurrent writers on disjoint pages
// commit in parallel; their log forces must batch (piggybacked > 0,
// strictly fewer device writes than commits).  A flush round covers the
// high-water mark, so a commit whose record an earlier round's write already
// covered finds the log durable and is not a force request: Requests is
// bounded by the commit count from above, not from below.
//
// The log device's barrier is held until every writer's first commit force
// has parked: the first round waits in its barrier while the other writers'
// forces park, and they share the next round — whatever order the scheduler
// runs the writers in.
func TestPageLockGroupCommitBatching(t *testing.T) {
	r := newRig(t, PolicyFaCEGSC)
	logDev := &heldSyncDev{Device: r.log}
	r.cfg.LogDev = logDev
	r.cfg.MaxWriters = 4
	db := r.open(t, false)
	t.Cleanup(func() { db.Close() })
	var ids []page.ID
	if err := db.Update(context.Background(), func(tx *Tx) error {
		for i := 0; i < 4; i++ {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before := db.Snapshot()
	const perWriter = 40
	logDev.gate.Lock()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(own page.ID) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, err := retryUpdate(context.Background(), db, func(tx *Tx) error {
					return tx.Modify(own, func(buf page.Buf) error {
						binary.LittleEndian.PutUint64(buf.Payload(), uint64(i+1))
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(ids[w])
	}
	for db.Snapshot().Wal.DurableWaits < before.Wal.DurableWaits+4 {
		runtime.Gosched()
	}
	logDev.gate.Unlock()
	wg.Wait()
	const commits = 4 * perWriter
	gc := db.Snapshot().Wal.Sub(before.Wal)
	if gc.ForceRequests > commits {
		t.Fatalf("ForceRequests = %d, want at most one per commit (%d)", gc.ForceRequests, commits)
	}
	if gc.Piggybacked == 0 {
		t.Fatalf("no piggybacked forces across %d concurrent commits: %+v", commits, gc)
	}
	if gc.Forces >= commits {
		t.Fatalf("group commit did not batch %d commits: %+v", commits, gc)
	}
	t.Logf("group commit fan-in %.2f (%d requests, %d writes, %d piggybacked)",
		gc.CoalesceFactor(), gc.ForceRequests, gc.Forces, gc.Piggybacked)
}

// TestPageLockCrashRecovery: concurrent writers, a crash, and recovery —
// committed transactions survive, and the interleaved multi-writer log
// replays cleanly.
func TestPageLockCrashRecovery(t *testing.T) {
	r := newRig(t, PolicyFaCEGSC)
	db := r.open(t, false)
	var ids []page.ID
	err := db.Update(context.Background(), func(tx *Tx) error {
		for i := 0; i < 4; i++ {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(own page.ID, base uint64) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := retryUpdate(context.Background(), db, func(tx *Tx) error {
					return tx.Modify(own, func(buf page.Buf) error {
						binary.LittleEndian.PutUint64(buf.Payload(), base+uint64(i))
						return nil
					})
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ids[w], uint64((w+1)*100))
	}
	wg.Wait()
	db.Crash()

	db2 := r.open(t, true)
	t.Cleanup(func() { db2.Close() })
	for w, id := range ids {
		want := uint64((w+1)*100 + 9)
		if err := db2.View(context.Background(), func(tx *Tx) error {
			return tx.Read(id, func(buf page.Buf) error {
				if got := binary.LittleEndian.Uint64(buf.Payload()); got != want {
					t.Errorf("page %d after recovery = %d, want %d", id, got, want)
				}
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
}
