package face

// Allocation budgets for the page path: a page image is 4 KiB, so a layer
// that stays under 4 096 bytes an operation allocated none.  The layers
// recycle their images (internal/page.FreeList); these tests fail when a
// page-sized allocation comes back.  They skip under the race build, whose
// detector allocates on its own account; CI runs them in a step of their
// own (go test -run AllocBudget).

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/reprolab/face/internal/btree"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	facecache "github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/heap"
	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/page"
)

// heapPerRun calls f runs times and returns the heap bytes and the
// allocations one call cost on average.  It is testing.AllocsPerRun (one
// processor, a warm-up call, runtime.MemStats read at both ends) reporting
// bytes as well.
func heapPerRun(t *testing.T, runs int, f func()) (bytes, allocs float64) {
	t.Helper()
	if page.RecycleGuard {
		t.Skip("allocation budgets are not measured under the race build")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestAllocBudgetPoolMiss: a buffer miss that evicts reuses the victim's
// image for the incoming page, and links its frame into the LRU without a
// list element of its own; what is left is the frame and the latch
// channels of the page and of its victim.
func TestAllocBudgetPoolMiss(t *testing.T) {
	pool := missPool(t)
	i := 0
	bytes, allocs := heapPerRun(t, 4096, func() {
		i++
		getUnpin(t, pool, page.ID(1+i%1024))
	})
	t.Logf("pool miss+evict: %.0f B/op, %.2f allocs/op", bytes, allocs)
	if bytes >= page.Size || allocs > 3.5 {
		t.Fatalf("pool miss+evict costs %.0f B and %.2f allocations, budget is under %d B and at most 3", bytes, allocs, page.Size)
	}
}

// TestAllocBudgetStageIn: stage-ins into a full FaCE+GSC queue — group
// replacement, second chances, destages and pulled DRAM victims included —
// amortised over four laps of the queue.
func TestAllocBudgetStageIn(t *testing.T) {
	const frames = 256
	flash := device.New("flash", device.ProfileSamsung470, facecache.FlashDeviceBlocks(frames, 0)+facecache.FlashDeviceSlack)
	// A DRAM buffer to pull from: it gives up to eight victims a time, whose
	// images come from, and go home to, its own free list.
	dram := page.NewFreeList(8)
	victims := make([]facecache.PulledPage, 0, 8)
	nextPull := page.ID(1 << 20)
	cache, err := facecache.NewMVFIFO(facecache.MVFIFOConfig{
		Dev: flash, Frames: frames, GroupSize: facecache.DefaultGroupSize, SecondChance: true,
		DiskWrite: func(page.ID, page.Buf) error { return nil },
		Pull: func(n int, take func([]facecache.PulledPage)) {
			victims = victims[:0]
			for ; len(victims) < min(n, cap(victims)); nextPull++ {
				img := dram.Get()
				img.Init(nextPull, page.TypeHeap)
				victims = append(victims, facecache.PulledPage{ID: nextPull, Data: img, Home: dram, Dirty: true, FDirty: true})
			}
			take(victims)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	img, probe := page.NewBuf(), page.NewBuf()
	i := 0
	stage := func() {
		i++
		id := page.ID(1 + i%(4*frames))
		img.Init(id, page.TypeHeap)
		img.SetLSN(page.LSN(i))
		if err := cache.StageIn(id, img, true, true); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 { // references, so that replacement finds survivors
			if _, _, err := cache.Lookup(id, probe); err != nil {
				t.Fatal(err)
			}
		}
	}
	for cache.Len() < frames-1 {
		stage()
	}
	bytes, allocs := heapPerRun(t, 4*frames, stage)
	s := cache.Stats()
	t.Logf("stage-in: %.0f B/op, %.2f allocs/op (%d pulled, %d second chances, %d destaged)", bytes, allocs, s.Pulled, s.SecondChances, s.DiskPageWrites)
	if s.Pulled == 0 || s.SecondChances == 0 || s.DiskPageWrites == 0 {
		t.Fatalf("the run missed part of group replacement: %+v", s)
	}
	if bytes >= page.Size || allocs > 1 {
		t.Fatalf("stage-in costs %.0f B and %.2f allocations, budget is under %d B and at most 1", bytes, allocs, page.Size)
	}
}

// allocEngine opens an engine on in-memory devices whose buffer holds every
// page the budgets below touch.
func allocEngine(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 4, 4096),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<16),
		BufferPages: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// inTx returns a call that runs fn in a transaction of its own and commits.
func inTx(t *testing.T, db *engine.DB, fn func(tx *engine.Tx) error) func() {
	return func() {
		if err := db.Update(context.Background(), fn); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocBudgetModify: a transaction changing eight bytes of a resident
// page with Modify keeps its before image on the stack and allocates what it
// did before the page path was looked at — a transaction, a record, its
// operations, the log's buffers — and no more.  A B-tree leaf insert made
// through an Edit, which moves its array with Writer.Move, allocates no
// more than one made through Modify, which logs the moved bytes as writes.
func TestAllocBudgetModify(t *testing.T) {
	db := allocEngine(t)
	defer db.Crash()
	var id page.ID
	inTx(t, db, func(tx *engine.Tx) (err error) {
		id, err = tx.Alloc(page.TypeHeap)
		return err
	})()

	var v uint64
	bytes, allocs := heapPerRun(t, 4096, inTx(t, db, func(tx *engine.Tx) error {
		return tx.Modify(id, func(buf page.Buf) error {
			v++
			binary.LittleEndian.PutUint64(buf.Payload()[64:], v)
			return nil
		})
	}))
	t.Logf("Modify of 8 bytes: %.0f B/op, %.2f allocs/op", bytes, allocs)
	if bytes >= page.Size || allocs > 8.5 {
		t.Fatalf("Modify of 8 bytes costs %.0f B and %.2f allocations, budget is under %d B and at most 8", bytes, allocs, page.Size)
	}

	// A leaf of 150 18-byte entries after a 10-byte header; each call
	// inserts an entry at position 40 or takes it out again.
	const at, end = page.HeaderSize + 10 + 40*18, page.HeaderSize + 10 + 150*18
	leaf := func(edit bool) func(*engine.Tx) error {
		insert := true
		return func(tx *engine.Tx) error {
			dst, src := at+18, at
			if !insert {
				dst, src = src, dst
			}
			defer func() { insert = !insert }()
			if edit {
				return tx.Edit(id, func(w *page.Writer) error {
					w.Move(dst, src, end-at)
					if insert {
						w.PutUint64(at, v)
					}
					return nil
				})
			}
			return tx.Modify(id, func(buf page.Buf) error {
				copy(buf[dst:dst+end-at], buf[src:src+end-at])
				if insert {
					binary.LittleEndian.PutUint64(buf[at:], v)
				}
				return nil
			})
		}
	}
	inTx(t, db, func(tx *engine.Tx) error {
		return tx.Modify(id, func(buf page.Buf) error {
			for i := 0; i < 150; i++ {
				binary.LittleEndian.PutUint64(buf[page.HeaderSize+10+18*i:], uint64(1000+2*i))
			}
			return nil
		})
	})()
	copyBytes, copyAllocs := heapPerRun(t, 4096, inTx(t, db, leaf(false)))
	moveBytes, moveAllocs := heapPerRun(t, 4096, inTx(t, db, leaf(true)))
	t.Logf("leaf insert, Modify: %.0f B/op, %.2f allocs/op; Edit with Move: %.0f B/op, %.2f allocs/op", copyBytes, copyAllocs, moveBytes, moveAllocs)
	if moveBytes >= page.Size || moveAllocs > copyAllocs+0.05 {
		t.Fatalf("a leaf insert with Move costs %.0f B and %.2f allocations, budget is under %d B and the %.2f of one through Modify", moveBytes, moveAllocs, page.Size, copyAllocs)
	}
}

// TestAllocBudgetEdit: the storage layers' steady-state writes — a heap
// record updated in place, and a B-tree key inserted into a leaf and
// deleted again — copy no page and allocate at most two objects each, the
// transaction's own allocations shared out over the 64 writes it makes.
func TestAllocBudgetEdit(t *testing.T) {
	db := allocEngine(t)
	defer db.Crash()
	var table *heap.Table
	var tree *btree.Tree
	var rids []page.RID
	inTx(t, db, func(tx *engine.Tx) (err error) {
		if table, err = heap.Create(tx, "t"); err != nil {
			return err
		}
		if tree, err = btree.Create(tx, "i"); err != nil {
			return err
		}
		for i := range 64 {
			rid, err := table.Insert(tx, make([]byte, 100))
			if err != nil {
				return err
			}
			rids = append(rids, rid)
			// Even keys fill the leaf; the odd ones go in and out below.
			if err := tree.Insert(tx, uint64(2*i), rid); err != nil {
				return err
			}
		}
		return nil
	})()

	// The bytes include the blocks the in-memory log device allocates as
	// the records fill them, some 50 to 80 bytes a write; a page copied a
	// write would be 4 KiB.
	const writes, maxBytes = 64, 256
	var v uint64
	update := inTx(t, db, func(tx *engine.Tx) error {
		for _, rid := range rids {
			err := table.Update(tx, rid, func(rec []byte) error {
				v++
				binary.LittleEndian.PutUint64(rec[40:], v)
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	insertDelete := inTx(t, db, func(tx *engine.Tx) error {
		for i := range writes / 2 {
			key := uint64(2*i + 1)
			if err := tree.Insert(tx, key, rids[i]); err != nil {
				return err
			}
			if _, _, _, err := tree.DeleteFirst(tx, key, key); err != nil {
				return err
			}
		}
		return nil
	})
	for _, c := range []struct {
		name string
		run  func()
	}{{"heap update", update}, {"leaf insert and delete", insertDelete}} {
		bytes, allocs := heapPerRun(t, 256, c.run)
		bytes, allocs = bytes/writes, allocs/writes
		t.Logf("%s: %.0f B/op, %.2f allocs/op", c.name, bytes, allocs)
		if bytes >= maxBytes || allocs > 2 {
			t.Fatalf("a %s costs %.0f B and %.2f allocations, budget is under %d B and at most 2", c.name, bytes, allocs, maxBytes)
		}
	}
}

// TestAllocBudgetLockGrant: a transaction that locks 32 pages nobody holds
// and releases them reuses the page entries and the lock record an earlier
// transaction left behind, so it allocates nothing of its own.  The
// runtime's map of entries still grows now and then under the churn of
// fresh page ids, more rarely the longer it runs, so the budget is
// measured after a warm-up and allows under one allocation per hundred
// transactions.
func TestAllocBudgetLockGrant(t *testing.T) {
	m := lock.New()
	ctx := context.Background()
	var tx uint64
	grantAndRelease := func() {
		tx++
		locks := m.Begin(tx)
		for i := range uint64(32) {
			if _, err := locks.Acquire(ctx, page.ID(tx*32+i), lock.Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		locks.ReleaseAll()
	}
	for range 8192 {
		grantAndRelease()
	}
	bytes, allocs := heapPerRun(t, 4096, grantAndRelease)
	t.Logf("32 grants and their release: %.1f B/op, %.4f allocs/op", bytes, allocs)
	if allocs >= 0.01 {
		t.Fatalf("32 grants and their release cost %.4f allocations, budget is under 0.01", allocs)
	}
}
