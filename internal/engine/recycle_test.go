package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reprolab/face/internal/page"
)

// TestRecycledImagesNeverReachReaders drives the page path the free lists
// sit under from eight goroutines at once: a 16-frame pool over a 64-frame
// FaCE+GSC cache that pulls DRAM victims, 160 pages, so that nearly every
// access misses, evicts, stages in, makes room and re-enqueues survivors
// while other goroutines look the same pages up.  Every page carries a
// checksum its writers maintain, and every read — through a transaction or
// straight out of the flash cache, which is how a miss reads — verifies the
// checksum, the page id and that the page's counter never runs backwards.
// An image handed out while something still reads or writes it shows up as
// one of those; under the race build the free lists also poison what they
// take and check it when they hand it out again.
func TestRecycledImagesNeverReachReaders(t *testing.T) {
	r := newRig(t, PolicyFaCEGSC)
	r.cfg.BufferPages = 16
	r.cfg.FlashFrames = 64
	r.cfg.GroupSize = 16
	db := r.open(t, false)
	ctx := context.Background()

	const pages, workers, rounds = 160, 8, 400
	ids := make([]page.ID, pages)
	if err := db.Update(ctx, func(tx *Tx) error {
		for i := range ids {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			ids[i] = id
			if err := tx.Modify(id, func(b page.Buf) error { b.UpdateChecksum(); return nil }); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The counter of page i is bumped under the page's exclusive lock;
	// floor[i] trails it, so no copy of the page read later may be older.
	counter := func(b page.Buf) uint64 { return binary.LittleEndian.Uint64(b.Payload()[128:]) }
	floor := make([]atomic.Uint64, pages)
	verify := func(how string, i int, b page.Buf, atLeast uint64) error {
		if err := b.VerifyChecksum(); err != nil {
			return fmt.Errorf("%s of page %d: %w", how, ids[i], err)
		}
		if b.ID() != ids[i] {
			return fmt.Errorf("%s of page %d returned page %d", how, ids[i], b.ID())
		}
		if got := counter(b); got < atLeast {
			return fmt.Errorf("%s of page %d: counter %d, already saw %d", how, ids[i], got, atLeast)
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			probe := page.NewBuf()
			for n := 0; n < rounds; n++ {
				i := rng.Intn(pages)
				var err error
				switch rng.Intn(3) {
				case 0:
					seen := floor[i].Load()
					err = db.View(ctx, func(tx *Tx) error {
						return tx.Read(ids[i], func(b page.Buf) error { return verify("Read", i, b, seen) })
					})
				case 1:
					err = db.Update(ctx, func(tx *Tx) error {
						return tx.Modify(ids[i], func(b page.Buf) error {
							if err := verify("Modify", i, b, floor[i].Load()); err != nil {
								return err
							}
							binary.LittleEndian.PutUint64(b.Payload()[128:], counter(b)+1)
							b.UpdateChecksum()
							floor[i].Store(counter(b))
							return nil
						})
					})
				case 2:
					// The cache's copy may trail the pool's, never a page
					// that was staged before: no floor, but a whole page.
					var found bool
					found, _, err = db.cache.Lookup(ids[i], probe)
					if err == nil && found {
						err = verify("Lookup", i, probe, 0)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		db.Crash()
		return
	}

	s := db.Snapshot()
	if s.Cache.Pulled == 0 || s.Cache.SecondChances == 0 || s.Cache.DiskPageWrites == 0 || s.Pool.Evictions == 0 {
		t.Errorf("the run exercised too little of the page path: %+v %+v", s.Pool, s.Cache)
	}
	for i := range ids {
		want := floor[i].Load()
		if err := db.View(ctx, func(tx *Tx) error {
			return tx.Read(ids[i], func(b page.Buf) error {
				if got := counter(b); got != want {
					return fmt.Errorf("page %d ends at %d, want %d", ids[i], got, want)
				}
				return verify("final Read", i, b, want)
			})
		}); err != nil {
			t.Error(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
