package face

// Durability tests for the persistent file-backed device subsystem: a
// database opened with WithDir must survive write-kill-reopen cycles with
// every committed transaction intact, recovered by the restart replay
// running against real files.

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// dirOptions returns the option set the persistence tests open their
// database with; reopen must use identical cache geometry.
func dirOptions(dir string, fsync bool) []Option {
	return []Option{
		WithDir(dir),
		WithFsync(fsync),
		WithPolicy(PolicyFaCEGSC),
		WithBufferPages(48),
		WithFlashFrames(256),
		WithGroupSize(16),
		WithSegmentEntries(64),
	}
}

func TestWithDirValidation(t *testing.T) {
	if _, err := Open(WithDir("")); err == nil {
		t.Fatal("empty WithDir accepted")
	}
	_, err := Open(
		WithDir(t.TempDir()),
		WithDevices(NewDisk("data", 1024), NewDisk("log", 1024)),
	)
	if err == nil {
		t.Fatal("WithDir combined with WithDevices accepted")
	}
}

func TestWithDirCreatesFilesAndReopens(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dirOptions(dir, true)...)
	if err != nil {
		t.Fatal(err)
	}
	if db.RecoveryReport() != nil {
		t.Fatal("fresh directory ran recovery")
	}

	var id PageID
	err = db.Update(context.Background(), func(tx *Tx) error {
		var err error
		if id, err = tx.Alloc(TypeHeap); err != nil {
			return err
		}
		return tx.Modify(id, func(buf PageBuf) error {
			copy(buf.Payload(), "hello, disk")
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"data.db", "wal.log", "flash.cache"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("device file %s missing: %v", name, err)
		}
	}

	db2, err := Open(dirOptions(dir, true)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.RecoveryReport() == nil {
		t.Fatal("reopen of an existing directory did not run recovery")
	}
	err = db2.View(context.Background(), func(tx *Tx) error {
		return tx.Read(id, func(buf PageBuf) error {
			if string(buf.Payload()[:11]) != "hello, disk" {
				t.Errorf("payload %q after reopen", buf.Payload()[:11])
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReopenRejectsDroppedFlashPolicy guards against silent data loss:
// under FaCE the flash cache is part of the persistent database, so
// reopening a directory that holds a non-empty flash.cache with a
// non-flash policy must fail instead of serving stale disk images.
func TestReopenRejectsDroppedFlashPolicy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dirOptions(dir, false)...)
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(context.Background(), func(tx *Tx) error {
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(WithDir(dir), WithPolicy(PolicyNone)); err == nil {
		t.Fatal("reopen with a non-flash policy accepted despite a non-empty flash.cache")
	}

	// The original policy still opens it.
	db2, err := Open(dirOptions(dir, false)...)
	if err != nil {
		t.Fatal(err)
	}
	db2.Close()
}

// TestCrashReopenTorture commits transactions against file-backed devices,
// kills the instance without any orderly shutdown, reopens the directory
// and verifies that every committed page carries its committed content and
// the recovered flash cache window is well-formed — three times in a row.
func TestCrashReopenTorture(t *testing.T) {
	const (
		pages      = 24
		cycles     = 3
		txPerCycle = 40
	)
	dir := filepath.Join(t.TempDir(), "db")
	// fsync off keeps the torture fast; in-process kill-and-reopen
	// durability does not depend on it (the OS page cache survives), and
	// the fsync code path itself is covered by the other persistence
	// tests.
	opts := func() []Option { return dirOptions(dir, false) }

	db, err := Open(opts()...)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]PageID, pages)
	err = db.Update(context.Background(), func(tx *Tx) error {
		for i := range ids {
			var err error
			if ids[i], err = tx.Alloc(TypeHeap); err != nil {
				return err
			}
			if err := tx.Modify(ids[i], func(buf PageBuf) error {
				binary.LittleEndian.PutUint64(buf.Payload(), 0)
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

	// expected[i] is the last committed value of page ids[i].
	expected := make([]uint64, pages)
	next := uint64(1)

	for cycle := 0; cycle < cycles; cycle++ {
		for tx := 0; tx < txPerCycle; tx++ {
			i := int(next) % pages
			v := next
			err := db.Update(context.Background(), func(tx *Tx) error {
				return tx.Modify(ids[i], func(buf PageBuf) error {
					binary.LittleEndian.PutUint64(buf.Payload(), v)
					return nil
				})
			})
			if err != nil {
				t.Fatalf("cycle %d: update %d: %v", cycle, tx, err)
			}
			// Committed: recovery must reproduce it whatever happens next.
			expected[i] = v
			next++
		}

		// Kill: volatile state (buffer pool, log tail, cache metadata) is
		// dropped; only the device files remain.
		db.Crash()
		if err := db.Update(context.Background(), func(tx *Tx) error { return nil }); !errors.Is(err, ErrCrashed) {
			t.Fatalf("cycle %d: update after crash: %v, want ErrCrashed", cycle, err)
		}

		db, err = Open(opts()...)
		if err != nil {
			t.Fatalf("cycle %d: reopen: %v", cycle, err)
		}
		rep := db.RecoveryReport()
		if rep == nil {
			t.Fatalf("cycle %d: reopen ran no recovery", cycle)
		}

		// Cache-window invariants of the recovered flash cache: the queue
		// never holds more entries than it has frames.
		if c := db.Cache(); c != nil {
			if c.Len() > c.Capacity() {
				t.Fatalf("cycle %d: recovered cache window %d exceeds capacity %d", cycle, c.Len(), c.Capacity())
			}
		}

		// Every committed value must be back.
		err = db.View(context.Background(), func(tx *Tx) error {
			for i, id := range ids {
				want := expected[i]
				if err := tx.Read(id, func(buf PageBuf) error {
					if got := binary.LittleEndian.Uint64(buf.Payload()); got != want {
						t.Errorf("cycle %d: page %d holds %d, want %d", cycle, id, got, want)
					}
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("cycle %d: verify: %v", cycle, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirFsyncDurability runs one commit-crash-reopen round with real
// fsync enabled end to end, exercising the Sync calls on the WAL force and
// checkpoint paths against actual files.
func TestDirFsyncDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dirOptions(dir, true)...)
	if err != nil {
		t.Fatal(err)
	}
	var id PageID
	err = db.Update(context.Background(), func(tx *Tx) error {
		var err error
		if id, err = tx.Alloc(TypeHeap); err != nil {
			return err
		}
		return tx.Modify(id, func(buf PageBuf) error {
			binary.LittleEndian.PutUint64(buf.Payload(), 0xDEADBEEF)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Crash()

	db2, err := Open(dirOptions(dir, true)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	err = db2.View(context.Background(), func(tx *Tx) error {
		return tx.Read(id, func(buf PageBuf) error {
			if got := binary.LittleEndian.Uint64(buf.Payload()); got != 0xDEADBEEF {
				t.Errorf("recovered payload %#x, want 0xDEADBEEF", got)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}
