package face

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// openTestDB opens a small database through the public options API.
func openTestDB(t testing.TB, policy string) *DB {
	t.Helper()
	db, err := Open(
		WithDevices(NewDiskArray("data", 4, 8192), NewDisk("log", 1<<15)),
		WithFlashDevice(NewSSD("flash", 2048)),
		WithPolicy(policy),
		WithBufferPages(48),
		WithFlashFrames(256),
		WithGroupSize(16),
		WithSegmentEntries(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenValidatesOptions(t *testing.T) {
	if _, err := Open(); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("Open without devices: %v, want ErrNoDevice", err)
	}
	_, err := Open(
		WithDevices(NewDisk("data", 1024), NewDisk("log", 1024)),
		WithPolicy("no-such-policy"),
	)
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Open(WithBufferPages(0)); err == nil {
		t.Fatal("WithBufferPages(0) accepted")
	}
	// The flash device and frame count are required only when the policy
	// needs them.
	db, err := Open(WithDevices(NewDisk("data", 1024), NewDisk("log", 1024)))
	if err != nil {
		t.Fatalf("minimal Open: %v", err)
	}
	db.Close()
}

func TestEveryRegisteredPolicyOpensByName(t *testing.T) {
	for _, name := range Policies() {
		if name == "none" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			db := openTestDB(t, name)
			err := db.Update(context.Background(), func(tx *Tx) error {
				id, err := tx.Alloc(TypeHeap)
				if err != nil {
					return err
				}
				return tx.Modify(id, func(buf PageBuf) error {
					buf.Payload()[0] = 1
					return nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentViewUpdate drives mixed View/Update traffic from many
// goroutines.  Writers increment a pair of pages by the same amount inside
// one Update; readers assert the pair invariant under View.  Afterwards
// the committed count and the final page images must match the bookkeeping
// done on the side.
func TestConcurrentViewUpdate(t *testing.T) {
	const (
		pairs      = 8
		writers    = 4
		readers    = 8
		iterations = 50
	)
	db := openTestDB(t, PolicyFaCEGSC)

	var ids [pairs][2]PageID
	err := db.Update(context.Background(), func(tx *Tx) error {
		for i := range ids {
			for j := 0; j < 2; j++ {
				id, err := tx.Alloc(TypeHeap)
				if err != nil {
					return err
				}
				ids[i][j] = id
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	committedBefore := db.Committed()

	var increments [pairs]atomic.Uint64
	var commits, views atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < iterations; i++ {
				pair := rng.Intn(pairs)
				delta := uint64(rng.Intn(9) + 1)
				err := db.Update(ctx, func(tx *Tx) error {
					for j := 0; j < 2; j++ {
						if err := tx.Modify(ids[pair][j], func(buf PageBuf) error {
							v := binary.LittleEndian.Uint64(buf.Payload())
							binary.LittleEndian.PutUint64(buf.Payload(), v+delta)
							return nil
						}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("Update: %v", err)
					return
				}
				// Only count the increment once the commit succeeded.
				increments[pair].Add(delta)
				commits.Add(1)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 100))
			for i := 0; i < iterations; i++ {
				pair := rng.Intn(pairs)
				err := db.View(ctx, func(tx *Tx) error {
					var a, b uint64
					if err := tx.Read(ids[pair][0], func(buf PageBuf) error {
						a = binary.LittleEndian.Uint64(buf.Payload())
						return nil
					}); err != nil {
						return err
					}
					if err := tx.Read(ids[pair][1], func(buf PageBuf) error {
						b = binary.LittleEndian.Uint64(buf.Payload())
						return nil
					}); err != nil {
						return err
					}
					if a != b {
						t.Errorf("pair %d torn: %d != %d", pair, a, b)
					}
					return nil
				})
				if err != nil {
					t.Errorf("View: %v", err)
					return
				}
				views.Add(1)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if got, want := db.Committed()-committedBefore, commits.Load()+views.Load(); got != want {
		t.Fatalf("committed count grew by %d, want %d (%d updates + %d views)",
			got, want, commits.Load(), views.Load())
	}

	// Final page images match the side bookkeeping.
	err = db.View(ctx, func(tx *Tx) error {
		for i := range ids {
			want := increments[i].Load()
			for j := 0; j < 2; j++ {
				if err := tx.Read(ids[i][j], func(buf PageBuf) error {
					if got := binary.LittleEndian.Uint64(buf.Payload()); got != want {
						t.Errorf("pair %d page %d = %d, want %d", i, j, got, want)
					}
					return nil
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewsRunInParallel proves the read side of the scheduler admits more
// than one transaction at once: two Views rendezvous inside their
// closures, which deadlocks if Views exclude each other.
func TestViewsRunInParallel(t *testing.T) {
	db := openTestDB(t, PolicyFaCE)
	if err := db.Update(context.Background(), func(tx *Tx) error {
		_, err := tx.Alloc(TypeHeap)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	var entered sync.WaitGroup
	entered.Add(2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := db.View(context.Background(), func(tx *Tx) error {
				entered.Done()
				<-release // both Views must be inside before either leaves
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	entered.Wait() // deadlocks here if Views serialize
	close(release)
	wg.Wait()
}

func TestPublicErrorValues(t *testing.T) {
	db := openTestDB(t, PolicyFaCE)
	ctx := context.Background()
	err := db.View(ctx, func(tx *Tx) error {
		_, err := tx.Alloc(TypeHeap)
		return err
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("Alloc in View: %v, want ErrConflict", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := db.Update(cancelled, func(*Tx) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Update: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.View(ctx, func(*Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("View after Close: %v, want ErrClosed", err)
	}
}

// TestLockManagerPublicAPI opens a database with default scheduling and
// WithMaxWriters, proves concurrent Update closures overlap, forces a
// deadlock matched by the public ErrDeadlock sentinel, and checks the
// Snapshot counters surface lock and group-commit activity.
func TestLockManagerPublicAPI(t *testing.T) {
	db, err := Open(
		WithDevices(NewDiskArray("data", 4, 8192), NewDisk("log", 1<<15)),
		WithBufferPages(48),
		WithPolicy(PolicyNone),
		WithMaxWriters(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ctx := context.Background()

	var a, b PageID
	if err := db.Update(ctx, func(tx *Tx) error {
		var err error
		if a, err = tx.Alloc(TypeHeap); err != nil {
			return err
		}
		b, err = tx.Alloc(TypeHeap)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	set := func(tx *Tx, id PageID, v uint64) error {
		return tx.Modify(id, func(buf PageBuf) error {
			binary.LittleEndian.PutUint64(buf.Payload(), v)
			return nil
		})
	}

	// Classic AB/BA cycle through the public API: exactly one victim.
	haveA, haveB := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- db.Update(ctx, func(tx *Tx) error {
			if err := set(tx, a, 1); err != nil {
				return err
			}
			close(haveA)
			<-haveB
			return set(tx, b, 1)
		})
	}()
	go func() {
		defer wg.Done()
		errs <- db.Update(ctx, func(tx *Tx) error {
			if err := set(tx, b, 2); err != nil {
				return err
			}
			close(haveB)
			<-haveA
			return set(tx, a, 2)
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

	// Concurrent disjoint writers commit in parallel; retry any deadlock.
	var wg2 sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg2.Add(1)
		go func(id PageID, base uint64) {
			defer wg2.Done()
			for i := 0; i < 25; i++ {
				for {
					err := db.Update(ctx, func(tx *Tx) error { return set(tx, id, base+uint64(i)) })
					if errors.Is(err, ErrDeadlock) {
						continue
					}
					if err != nil {
						t.Error(err)
					}
					break
				}
			}
		}([]PageID{a, b}[w%2], uint64(w*1000))
	}
	wg2.Wait()

	snap := db.Snapshot()
	if snap.Locks.Grants() == 0 || snap.Locks.Deadlocks != 1 {
		t.Fatalf("lock counters not surfaced: %+v", snap.Locks)
	}
	if snap.Wal.ForceRequests == 0 {
		t.Fatalf("group-commit counters not surfaced: %+v", snap.Wal)
	}
}

// TestMetricsRegistryAndTracingOptions: an engine opened with a registry
// from NewMetricsRegistry publishes its metrics there, has a tracer, and
// its snapshot's phases condense (Summaries) to the transactions it ran.
func TestMetricsRegistryAndTracingOptions(t *testing.T) {
	reg := NewMetricsRegistry()
	db, err := Open(WithDevices(NewDisk("data", 1024), NewDisk("log", 1024)), WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Tracer() == nil || db.Metrics() != reg {
		t.Fatalf("tracer %v, registry %p; want a tracer and the shared registry %p", db.Tracer(), db.Metrics(), reg)
	}
	for range 3 {
		if err := db.Update(context.Background(), func(tx *Tx) error {
			_, err := tx.Alloc(TypeHeap)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Snapshot().Phases.Summaries().Total.Count; n != 3 {
		t.Fatalf("the phases summarise %d transactions, want 3", n)
	}
	var out strings.Builder
	reg.WritePrometheus(&out)
	if !strings.Contains(out.String(), "face_tx_total_seconds") {
		t.Fatalf("the shared registry holds no transaction metrics:\n%s", out.String())
	}
}
