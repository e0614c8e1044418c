package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/buffer"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// newFlashEngine opens a FaCE+GSC engine with a 64-page buffer.
func newFlashEngine(t *testing.T) *DB {
	t.Helper()
	cfg := Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 4, 32768),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<16),
		FlashDev:    device.New("flash", device.ProfileSamsung470, 4096),
		BufferPages: 64,
		Policy:      PolicyFaCEGSC,
		FlashFrames: 512,
		GroupSize:   16,
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestEngineConcurrentWorkload drives concurrent Update/View transactions
// through the buffer pool and striped cache directory and verifies (under
// -race) that the data survives: every page carries the value of its last
// committed write.
func TestEngineConcurrentWorkload(t *testing.T) {
	db := newFlashEngine(t)
	ctx := context.Background()

	const pages = 96 // spills the 64-page buffer so the flash path runs
	ids := make([]page.ID, pages)
	err := db.Update(ctx, func(tx *Tx) error {
		for i := range ids {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			ids[i] = id
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	workers := 8
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := ids[(w*13+i)%pages]
				err := db.Update(ctx, func(tx *Tx) error {
					return tx.Modify(id, func(buf page.Buf) error {
						buf[page.HeaderSize]++
						return nil
					})
				})
				if err != nil && !errors.Is(err, ErrDeadlock) {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Every page's counter must equal the number of committed increments;
	// verify by re-reading under a View and summing: the commits that did
	// not deadlock all applied exactly once, so the total must equal the
	// engine's committed-update count minus the setup transaction.  The
	// snapshot is taken before the View, whose own read-only commit would
	// tick the counter.
	snap := db.Snapshot()
	var total int64
	err = db.View(ctx, func(tx *Tx) error {
		for _, id := range ids {
			if err := tx.Read(id, func(buf page.Buf) error {
				total += int64(buf[page.HeaderSize])
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	committedIncrements := snap.Committed - 1 // minus the setup transaction
	if total != committedIncrements {
		t.Fatalf("page counters sum to %d, want %d committed increments (lost or duplicated writes)",
			total, committedIncrements)
	}
}

// TestSnapshotStatsCoherent is the stats-tearing regression test at the
// engine level: Snapshot must derive PageAccesses and Pool from one
// coherent pool sampling while transactions keep mutating the counters.
// Before the fix, PageAccesses and the elapsed-time model were computed
// from two separate pool reads and could disagree.  The buffer package
// checks the pool's own sampling under concurrent Gets
// (buffer.TestStatsCoherent).
func TestSnapshotStatsCoherent(t *testing.T) {
	db := newFlashEngine(t)
	ctx := context.Background()
	var ids []page.ID
	err := db.Update(ctx, func(tx *Tx) error {
		for i := 0; i < 16; i++ {
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(w*5+i)%len(ids)]
				err := db.View(ctx, func(tx *Tx) error {
					return tx.Read(id, func(page.Buf) error { return nil })
				})
				if err != nil && !errors.Is(err, ErrDeadlock) {
					t.Errorf("view: %v", err)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := db.Snapshot()
		if s.PageAccesses != s.Pool.Hits+s.Pool.Misses {
			t.Fatalf("snapshot tore: PageAccesses %d != Hits+Misses %d",
				s.PageAccesses, s.Pool.Hits+s.Pool.Misses)
		}
		if hr := s.Pool.HitRate(); hr < 0 || hr > 1 {
			t.Fatalf("hit rate %v outside [0, 1]", hr)
		}
	}
	close(stop)
	wg.Wait()
}

// TestEngineClosePinWaitHang is the shutdown-hang regression test at the
// engine level: a frame allocation parked on the all-pinned condition
// (pins held by transactions begun outside the scheduler, which do not
// hold the lifecycle lock) must be woken by Close and fail with the
// pool's ErrClosed instead of hanging forever.
func TestEngineClosePinWaitHang(t *testing.T) {
	cfg := Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 4, 32768),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<16),
		BufferPages: 2,
		Policy:      PolicyNone,
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var a, b page.ID
	err = db.Update(ctx, func(tx *Tx) error {
		var err error
		if a, err = tx.Alloc(page.TypeHeap); err != nil {
			return err
		}
		b, err = tx.Alloc(page.TypeHeap)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pin both frames directly, then park a third allocation on the
	// pin-wait.
	pool := db.Pool()
	if _, err := pool.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(b); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := pool.Get(a + 100)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Get on an all-pinned pool returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung under pinned load")
	}
	select {
	case err := <-got:
		if !errors.Is(err, buffer.ErrClosed) {
			t.Fatalf("woken pin-waiter got %v, want buffer.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pin-waiter not woken by engine Close")
	}
}
