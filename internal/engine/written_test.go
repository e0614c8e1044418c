package engine

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// diskValue reads the value writeValue stored in the data device's copy
// of the page, past any cache.
func diskValue(t *testing.T, r *testRig, id page.ID) uint64 {
	t.Helper()
	buf := page.NewBuf()
	if err := r.data.ReadAt(int64(id), buf); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(buf.Payload())
}

// TestRestartSkipsPageCurrentOnDisk: the page's only logged change reached
// the data device, which noted it in the log, and no cache holds the page
// any more.  Restart must skip it without reading anything from disk under
// every policy, and read back the change.
func TestRestartSkipsPageCurrentOnDisk(t *testing.T) {
	for _, c := range restartCases() {
		t.Run(c.name, func(t *testing.T) {
			// More than twice the rig's 256 flash frames of pages, read
			// round robin, push the changed page out of any cache.
			r, db, ids := changedThenEvicted(t, c, 576)
			id := ids[0]
			// The round of reads after the page is home evicts pages, and
			// each eviction logs the notes of the writes that landed before
			// it.
			deadline := time.Now().Add(10 * time.Second)
			for home := false; !home; {
				if time.Now().After(deadline) {
					t.Fatal("changed page never left the cache for the disk")
				}
				home = diskValue(t, r, id) == 1 && (db.cache == nil || !db.cache.Contains(id))
				tx := begin(t, db)
				for _, other := range ids[1:] {
					readValue(t, tx, other)
				}
				tx.commit()
			}
			// Notes are not forced; a later commit would carry this one.
			if err := db.log.ForceAll(); err != nil {
				t.Fatal(err)
			}
			db.Crash()

			db2 := r.open(t, true)
			defer db2.Close()
			rep := db2.RecoveryReport()
			if rep.DiskReads != 0 || rep.PagesSkipped != 1 || rep.RedoSkipped != 1 || db2.pool.Stats().Misses != 0 {
				t.Fatalf("restart read %d disk blocks and %d pages, skipped %d; want the page skipped unread: %+v",
					rep.DiskReads, db2.pool.Stats().Misses, rep.PagesSkipped, rep.Report)
			}
			tx := begin(t, db2)
			if got := readValue(t, tx, id); got != 1 {
				t.Fatalf("page %d = %d after restart, want 1", id, got)
			}
			tx.commit()
		})
	}
}

// TestPageWriteNotedOnlyOnceDurable: on a data device with a barrier, an
// HDD-only eviction writes the changed page, the log is forced and the
// system crashes.  Without a barrier since the write, or after one that
// failed, the crash loses it: restart must not have been told it is on
// disk, and redoes the change.  After a barrier the write survives, its
// note is in the log, and restart skips the page unread.
func TestPageWriteNotedOnlyOnceDurable(t *testing.T) {
	for _, barrier := range []string{"none", "failed", "done"} {
		synced := barrier == "done"
		t.Run("barrier "+barrier, func(t *testing.T) {
			r, db, ids := changedThenEvicted(t, restartCase{policy: PolicyNone, volatile: true}, 64)
			id := ids[0]
			if diskValue(t, r, id) != 1 {
				t.Fatal("the eviction did not write the changed page")
			}
			switch barrier {
			case "failed":
				dev := r.cfg.DataDev.(*volatileDev)
				dev.mu.Lock()
				dev.failSync = true
				dev.mu.Unlock()
				if err := db.syncData(); err == nil {
					t.Fatal("syncData succeeded over a failed barrier")
				}
			case "done":
				if err := db.syncData(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.log.ForceAll(); err != nil {
				t.Fatal(err)
			}
			db.Crash()
			r.cfg.DataDev.(*volatileDev).crash()
			if got := diskValue(t, r, id) == 1; got != synced {
				t.Fatalf("changed page on disk after the crash = %v, want %v", got, synced)
			}

			db2 := r.open(t, true)
			defer db2.Close()
			rep := db2.RecoveryReport()
			if synced && (rep.PagesSkipped != 1 || rep.DiskReads != 0) {
				t.Fatalf("synced write: restart read %d disk blocks, skipped %d pages; want 0 and 1", rep.DiskReads, rep.PagesSkipped)
			}
			if !synced && (rep.PagesRedone != 1 || rep.RedoApplied != 1) {
				t.Fatalf("lost write: restart redid %d changes on %d pages, want 1 on 1: %+v", rep.RedoApplied, rep.PagesRedone, rep.Report)
			}
			tx := begin(t, db2)
			if got := readValue(t, tx, id); got != 1 {
				t.Fatalf("page %d = %d after restart, want 1", id, got)
			}
			tx.commit()
		})
	}
}

// volatileDev is a data device with a durability barrier.  Every write
// reaches the device at once, as it reaches an operating system's cache;
// crash puts back what each block written since the last Sync held then,
// as a power cut loses what no fsync covered.
type volatileDev struct {
	device.Dev

	mu sync.Mutex
	// synced holds the image at the last barrier of every block written
	// since.
	synced map[int64][]byte
	// failSync makes every barrier fail, leaving the writes volatile.
	failSync bool
}

func newVolatileDev(dev device.Dev) *volatileDev {
	return &volatileDev{Dev: dev, synced: make(map[int64][]byte)}
}

func (d *volatileDev) WriteAt(blk int64, p []byte) error {
	// The engine never writes one block from two goroutines at once, so
	// the image read here is the one this write replaces.
	old := make([]byte, device.BlockSize)
	if err := d.Dev.ReadAt(blk, old); err != nil {
		return err
	}
	d.mu.Lock()
	if _, ok := d.synced[blk]; !ok {
		d.synced[blk] = old
	}
	d.mu.Unlock()
	return d.Dev.WriteAt(blk, p)
}

func (d *volatileDev) WriteRun(blk int64, pages [][]byte) error {
	for i, p := range pages {
		if err := d.WriteAt(blk+int64(i), p); err != nil {
			return err
		}
	}
	return nil
}

func (d *volatileDev) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failSync {
		return errors.New("volatileDev: barrier failed")
	}
	clear(d.synced)
	return nil
}

// crash loses every write no barrier covered; the device restarts with
// working barriers.
func (d *volatileDev) crash() {
	d.mu.Lock()
	lost := d.synced
	d.synced = make(map[int64][]byte)
	d.failSync = false
	d.mu.Unlock()
	for blk, img := range lost {
		if err := d.Dev.WriteAt(blk, img); err != nil {
			panic(err)
		}
	}
}
