package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/reprolab/face/internal/buffer"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/page"
)

// testRig bundles the devices of one database instance so it can be
// crashed and reopened.
type testRig struct {
	data  *device.Array
	log   *device.Device
	flash *device.Device
	cfg   Config
}

func newRig(t *testing.T, policy CachePolicy) *testRig {
	t.Helper()
	r := &testRig{
		data:  device.NewArray("data", device.ProfileCheetah15K, 4, 4096),
		log:   device.New("log", device.ProfileCheetah15K, 8192),
		flash: device.New("flash", device.ProfileSamsung470, 2048),
	}
	r.cfg = Config{
		DataDev:        r.data,
		LogDev:         r.log,
		FlashDev:       r.flash,
		BufferPages:    32,
		Policy:         policy,
		FlashFrames:    256,
		GroupSize:      16,
		SegmentEntries: 64,
	}
	if !policy.UsesFlash() {
		r.cfg.FlashDev = nil
		r.cfg.FlashFrames = 0
	}
	return r
}

func (r *testRig) open(t *testing.T, recover bool) *DB {
	t.Helper()
	cfg := r.cfg
	cfg.Recover = recover
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// writeValue stores a uint64 value in the payload of the page.
// begin starts a read-write transaction outside View and Update, so a test
// can interleave it with others or leave it open across a crash; the test
// finishes it with commit or abort.  Like Update's, it carries a phase
// trace.  Its lock waits end after ten seconds, so transactions of one
// test that lock the same page fail the test instead of hanging it.
func begin(t testing.TB, db *DB) *Tx {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	tx, err := db.beginTx(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	tx.tr = &txTrace{start: time.Now()}
	return tx
}

func writeValue(t *testing.T, tx *Tx, id page.ID, v uint64) {
	t.Helper()
	if err := tx.Modify(id, func(buf page.Buf) error {
		binary.LittleEndian.PutUint64(buf.Payload(), v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// readValue reads the uint64 value from the payload of the page.
func readValue(t *testing.T, tx *Tx, id page.ID) uint64 {
	t.Helper()
	var v uint64
	if err := tx.Read(id, func(buf page.Buf) error {
		v = binary.LittleEndian.Uint64(buf.Payload())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return v
}

func allPolicies() []CachePolicy {
	return []CachePolicy{PolicyNone, PolicyFaCE, PolicyFaCEGR, PolicyFaCEGSC, PolicyLC, PolicyWriteThrough}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range allPolicies() {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyNone {
		t.Fatalf("ParsePolicy(\"\") = %v, %v", p, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if PolicyNone.UsesFlash() || !PolicyFaCE.UsesFlash() {
		t.Fatal("UsesFlash misbehaves")
	}
	if PolicyFaCE.String() != "face" || CachePolicy("").String() != "none" {
		t.Fatal("String misbehaves")
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, PolicyFaCE)
	bad := r.cfg
	bad.DataDev = nil
	if _, err := Open(bad); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("missing data device: %v", err)
	}
	bad = r.cfg
	bad.LogDev = nil
	if _, err := Open(bad); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("missing log device: %v", err)
	}
	bad = r.cfg
	bad.FlashDev = nil
	if _, err := Open(bad); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("missing flash device: %v", err)
	}
	bad = r.cfg
	bad.BufferPages = 0
	if _, err := Open(bad); err == nil {
		t.Fatal("zero buffer pages accepted")
	}
	bad = r.cfg
	bad.FlashFrames = 0
	if _, err := Open(bad); err == nil {
		t.Fatal("zero flash frames accepted with a flash policy")
	}
	bad = r.cfg
	bad.Policy = "bogus"
	if _, err := Open(bad); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestBasicTransactionsAcrossPolicies(t *testing.T) {
	for _, policy := range allPolicies() {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			r := newRig(t, policy)
			db := r.open(t, false)
			defer db.Close()

			// Allocate pages and write values.
			tx := begin(t, db)
			var ids []page.ID
			for i := 0; i < 100; i++ {
				id, err := tx.Alloc(page.TypeHeap)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				writeValue(t, tx, id, uint64(i))
			}
			if err := tx.commit(); err != nil {
				t.Fatal(err)
			}

			// Read them back through a workload large enough to overflow
			// the 32-page DRAM buffer, exercising the cache/disk paths.
			tx2 := begin(t, db)
			for round := 0; round < 3; round++ {
				for i, id := range ids {
					if got := readValue(t, tx2, id); got != uint64(i) {
						t.Fatalf("page %d value = %d, want %d", id, got, i)
					}
				}
			}
			if err := tx2.commit(); err != nil {
				t.Fatal(err)
			}
			if db.Committed() != 2 {
				t.Fatalf("Committed = %d, want 2", db.Committed())
			}
			if db.NumPages() != 100 {
				t.Fatalf("NumPages = %d, want 100", db.NumPages())
			}
			if policy.UsesFlash() {
				if db.Cache() == nil || db.Cache().Stats().StageIns == 0 {
					t.Fatal("flash cache saw no traffic")
				}
			} else if db.Cache() != nil {
				t.Fatal("cache present for PolicyNone")
			}
			if db.Elapsed() <= 0 {
				t.Fatal("Elapsed not positive")
			}
		})
	}
}

func TestAbortRollsBack(t *testing.T) {
	r := newRig(t, PolicyFaCE)
	db := r.open(t, false)
	defer db.Close()

	tx := begin(t, db)
	id, err := tx.Alloc(page.TypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	writeValue(t, tx, id, 111)
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := begin(t, db)
	writeValue(t, tx2, id, 222)
	if got := readValue(t, tx2, id); got != 222 {
		t.Fatalf("uncommitted read = %d", got)
	}
	if err := tx2.abort(); err != nil {
		t.Fatal(err)
	}

	tx3 := begin(t, db)
	if got := readValue(t, tx3, id); got != 111 {
		t.Fatalf("value after abort = %d, want 111", got)
	}
	tx3.commit()

	// A transaction kept past its closure is finished: every operation
	// on it fails, whether the closure committed it or rolled it back.
	for _, fail := range []error{nil, errors.New("roll back")} {
		var leaked *Tx
		err := db.Update(context.Background(), func(tx *Tx) error {
			leaked = tx
			return fail
		})
		if !errors.Is(err, fail) {
			t.Fatalf("Update returning %v: %v", fail, err)
		}
		if err := leaked.commit(); !errors.Is(err, ErrTxDone) {
			t.Fatalf("commit after Update (%v): %v", fail, err)
		}
		if err := leaked.abort(); !errors.Is(err, ErrTxDone) {
			t.Fatalf("abort after Update (%v): %v", fail, err)
		}
		if err := leaked.Modify(id, func(page.Buf) error { return nil }); !errors.Is(err, ErrTxDone) {
			t.Fatalf("Modify after Update (%v): %v", fail, err)
		}
		if err := leaked.Read(id, func(page.Buf) error { return nil }); !errors.Is(err, ErrTxDone) {
			t.Fatalf("Read after Update (%v): %v", fail, err)
		}
		if err := leaked.Peek(id, func(page.Buf) error { return nil }); !errors.Is(err, ErrTxDone) {
			t.Fatalf("Peek after Update (%v): %v", fail, err)
		}
		if _, err := leaked.Alloc(page.TypeHeap); !errors.Is(err, ErrTxDone) {
			t.Fatalf("Alloc after Update (%v): %v", fail, err)
		}
	}
}

func TestModifyErrorLeavesPageUntouched(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	defer db.Close()
	tx := begin(t, db)
	id, _ := tx.Alloc(page.TypeHeap)
	writeValue(t, tx, id, 5)
	boom := fmt.Errorf("boom")
	err := tx.Modify(id, func(buf page.Buf) error {
		binary.LittleEndian.PutUint64(buf.Payload(), 999)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Modify error = %v", err)
	}
	if got := readValue(t, tx, id); got != 5 {
		t.Fatalf("value after failed Modify = %d, want 5", got)
	}
	tx.commit()
}

func TestModifyNoChangeWritesNoLog(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	defer db.Close()
	tx := begin(t, db)
	id, _ := tx.Alloc(page.TypeHeap)
	before := db.Log().Next()
	if err := tx.Modify(id, func(buf page.Buf) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if db.Log().Next() != before {
		t.Fatal("no-op Modify appended a log record")
	}
	tx.commit()
}

func crashRecoverScenario(t *testing.T, policy CachePolicy) {
	r := newRig(t, policy)
	db := r.open(t, false)

	// Committed state before the crash.
	tx := begin(t, db)
	var ids []page.ID
	for i := 0; i < 200; i++ {
		id, err := tx.Alloc(page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		writeValue(t, tx, id, uint64(i))
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// More committed updates after the checkpoint.
	tx2 := begin(t, db)
	for i := 0; i < 100; i++ {
		writeValue(t, tx2, ids[i], uint64(i)+1000)
	}
	if err := tx2.commit(); err != nil {
		t.Fatal(err)
	}

	// An uncommitted (loser) transaction.
	tx3 := begin(t, db)
	for i := 100; i < 150; i++ {
		writeValue(t, tx3, ids[i], 7777)
	}
	// Force the loser's pages out of DRAM so some reach the persistent
	// database before the crash.
	tx4 := begin(t, db)
	for i := 150; i < 200; i++ {
		_ = readValue(t, tx4, ids[i])
	}
	tx4.commit()

	db.Crash()

	// A crashed database refuses new work.
	if err := db.Update(context.Background(), func(*Tx) error { return nil }); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Update after crash: %v", err)
	}

	db2 := r.open(t, true)
	defer db2.Close()
	rep := db2.RecoveryReport()
	if rep == nil {
		t.Fatal("no recovery report after recovering open")
	}
	if rep.TotalTime <= 0 {
		t.Fatal("recovery took no simulated time")
	}

	tx5 := begin(t, db2)
	for i := 0; i < 100; i++ {
		if got := readValue(t, tx5, ids[i]); got != uint64(i)+1000 {
			t.Fatalf("policy %s: committed update lost: page %d = %d, want %d", policy, ids[i], got, i+1000)
		}
	}
	for i := 100; i < 150; i++ {
		if got := readValue(t, tx5, ids[i]); got == 7777 {
			t.Fatalf("policy %s: loser transaction survived on page %d", policy, ids[i])
		}
	}
	for i := 150; i < 200; i++ {
		if got := readValue(t, tx5, ids[i]); got != uint64(i) {
			t.Fatalf("policy %s: baseline value lost: page %d = %d, want %d", policy, ids[i], got, i)
		}
	}
	tx5.commit()
}

func TestCrashRecoveryAllPolicies(t *testing.T) {
	for _, policy := range allPolicies() {
		policy := policy
		t.Run(string(policy), func(t *testing.T) { crashRecoverScenario(t, policy) })
	}
}

func TestFaCERecoveryReadsMostlyFromFlash(t *testing.T) {
	r := newRig(t, PolicyFaCEGSC)
	db := r.open(t, false)
	tx := begin(t, db)
	var ids []page.ID
	for i := 0; i < 150; i++ {
		id, _ := tx.Alloc(page.TypeHeap)
		ids = append(ids, id)
		writeValue(t, tx, id, uint64(i))
	}
	tx.commit()
	db.Checkpoint()
	tx2 := begin(t, db)
	for i := 0; i < 150; i++ {
		writeValue(t, tx2, ids[i], uint64(i)*3)
	}
	tx2.commit()
	db.Crash()

	db2 := r.open(t, true)
	defer db2.Close()
	rep := db2.RecoveryReport()
	if rep.FlashReads == 0 {
		t.Fatal("FaCE recovery read nothing from flash")
	}
	// The pages tx2 changed and evicted are current in flash, so redo
	// skips them unread, and it reads every other page of the log once.
	if rep.PagesSkipped == 0 {
		t.Fatalf("no page skipped although evicted pages are current in flash: %+v", rep.Report)
	}
	if reads := db2.pool.Stats().Misses; reads > int64(len(ids)) {
		t.Fatalf("restart read %d pages, more than the %d pages in the log", reads, len(ids))
	}
}

// restartCase is a cache configuration a restart test runs under: every
// policy.  volatile puts the data device behind a barrier whose unsynced
// writes a crash loses (volatileDev).
type restartCase struct {
	name     string
	policy   CachePolicy
	volatile bool
}

func restartCases() []restartCase {
	var out []restartCase
	for _, p := range allPolicies() {
		out = append(out, restartCase{name: string(p), policy: p})
	}
	return out
}

// changedThenEvicted opens a database under c, checkpoints n pages, logs
// one change of the first page and reads up to 63 others, so that page
// leaves the DRAM buffer for the flash cache (for HDD-only, the disk).  Its
// flash copy then holds the page's only logged change.
func changedThenEvicted(t *testing.T, c restartCase, n int) (*testRig, *DB, []page.ID) {
	t.Helper()
	r := newRig(t, c.policy)
	if c.volatile {
		r.cfg.DataDev = newVolatileDev(r.data)
	}
	db := r.open(t, false)
	tx := begin(t, db)
	ids := make([]page.ID, n)
	for i := range ids {
		ids[i], _ = tx.Alloc(page.TypeHeap)
		writeValue(t, tx, ids[i], 0)
	}
	tx.commit()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = begin(t, db)
	writeValue(t, tx, ids[0], 1)
	tx.commit()
	tx = begin(t, db)
	var changed page.LSN
	tx.Read(ids[0], func(buf page.Buf) error { changed = buf.LSN(); return nil })
	for _, id := range ids[1:min(n, 64)] {
		readValue(t, tx, id)
	}
	tx.commit()
	if db.pool.Contains(ids[0]) {
		t.Fatal("changed page still in the DRAM buffer")
	}
	if d, ok := db.cache.(lsnDirectory); ok {
		if lsn, ok := d.CopyLSN(ids[0]); !ok || lsn < changed {
			t.Fatal("changed page never reached the flash queue")
		}
	}
	return r, db, ids
}

// TestRestartRedoesPageNewerThanItsFlashCopy: the page's flash (or disk)
// copy holds its first logged change, its second is only in the log.
// Restart must read the page and redo the second change under every
// policy.
func TestRestartRedoesPageNewerThanItsFlashCopy(t *testing.T) {
	for _, c := range restartCases() {
		t.Run(c.name, func(t *testing.T) {
			r, db, ids := changedThenEvicted(t, c, 64)
			id := ids[0]
			tx := begin(t, db)
			writeValue(t, tx, id, 2)
			tx.commit()
			db.Crash()

			db2 := r.open(t, true)
			defer db2.Close()
			// LC and write-through restart cold, so they redo the first
			// change as well.
			rep := db2.RecoveryReport()
			if rep.RedoApplied == 0 || rep.PagesRedone != 1 || rep.PagesSkipped != 0 {
				t.Fatalf("report %+v", rep.Report)
			}
			tx = begin(t, db2)
			if got := readValue(t, tx, id); got != 2 {
				t.Fatalf("page %d = %d after restart, want 2", id, got)
			}
			tx.commit()
		})
	}
}

// TestRestartSkipsPageCurrentInFlash: the page's flash copy holds its only
// logged change, so a cache whose directory records pageLSNs lets restart
// skip the page without reading it.  So does the page-written note of a
// write of that copy to disk: HDD-only's eviction, write-through's
// stage-in.  LC, whose only current copy is in a cache that restarts cold,
// reads it once.
func TestRestartSkipsPageCurrentInFlash(t *testing.T) {
	for _, c := range restartCases() {
		t.Run(c.name, func(t *testing.T) {
			r, db, ids := changedThenEvicted(t, c, 64)
			id := ids[0]
			onDisk := diskValue(t, r, id) == 1
			db.Crash()

			db2 := r.open(t, true)
			defer db2.Close()
			rep := db2.RecoveryReport()
			reads := db2.pool.Stats().Misses
			if _, ok := db2.cache.(lsnDirectory); ok {
				if rep.RedoSkipped != 1 || rep.PagesSkipped != 1 || reads != 0 || db2.cache.Stats().Lookups != 0 {
					t.Fatalf("restart read %d pages (%d flash lookups), skipped %d; want the page skipped unread",
						reads, db2.cache.Stats().Lookups, rep.PagesSkipped)
				}
			} else if onDisk != (c.policy == PolicyNone || c.policy == PolicyWriteThrough) {
				t.Fatalf("current copy on disk = %v under %s", onDisk, c.policy)
			} else if onDisk && (rep.PagesSkipped != 1 || reads != 0) {
				t.Fatalf("restart read %d pages and skipped %d with the current copy noted on disk, want 0 and 1", reads, rep.PagesSkipped)
			} else if !onDisk && (rep.PagesSkipped != 0 || reads != 1) {
				t.Fatalf("restart read %d pages and skipped %d without a current copy it knows of, want 1 and 0", reads, rep.PagesSkipped)
			}
			tx := begin(t, db2)
			if got := readValue(t, tx, id); got != 1 {
				t.Fatalf("page %d = %d after restart, want 1", id, got)
			}
			tx.commit()
		})
	}
}

func TestHDDOnlyRecoverySlowerThanFaCE(t *testing.T) {
	run := func(policy CachePolicy) time.Duration {
		r := newRig(t, policy)
		db := r.open(t, false)
		tx := begin(t, db)
		var ids []page.ID
		for i := 0; i < 200; i++ {
			id, _ := tx.Alloc(page.TypeHeap)
			ids = append(ids, id)
			writeValue(t, tx, id, uint64(i))
		}
		tx.commit()
		db.Checkpoint()
		tx2 := begin(t, db)
		for i := 0; i < 200; i++ {
			writeValue(t, tx2, ids[i], uint64(i)+5)
		}
		tx2.commit()
		db.Crash()
		db2 := r.open(t, true)
		defer db2.Close()
		return db2.RecoveryReport().TotalTime
	}
	faceTime := run(PolicyFaCEGSC)
	hddTime := run(PolicyNone)
	if faceTime >= hddTime {
		t.Fatalf("FaCE restart (%v) should be faster than HDD-only restart (%v)", faceTime, hddTime)
	}
}

func TestPeriodicCheckpointViaTick(t *testing.T) {
	r := newRig(t, PolicyFaCE)
	r.cfg.CheckpointEvery = 50 * time.Millisecond
	db := r.open(t, false)
	defer db.Close()

	tx := begin(t, db)
	var ids []page.ID
	for i := 0; i < 50; i++ {
		id, _ := tx.Alloc(page.TypeHeap)
		ids = append(ids, id)
	}
	tx.commit()

	for round := 0; round < 60; round++ {
		tx := begin(t, db)
		for _, id := range ids {
			writeValue(t, tx, id, uint64(round))
		}
		tx.commit()
		if err := db.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Checkpoints() == 0 {
		t.Fatal("periodic checkpoints never fired")
	}
	if db.Clock().Now() == 0 {
		t.Fatal("Tick did not advance the simulated clock")
	}
}

func TestSnapshotDeltas(t *testing.T) {
	r := newRig(t, PolicyFaCE)
	db := r.open(t, false)
	defer db.Close()
	tx := begin(t, db)
	id, _ := tx.Alloc(page.TypeHeap)
	writeValue(t, tx, id, 1)
	tx.commit()

	before := db.Snapshot()
	tx2 := begin(t, db)
	for i := 0; i < 10; i++ {
		writeValue(t, tx2, id, uint64(i))
	}
	tx2.commit()
	after := db.Snapshot()

	if after.Committed-before.Committed != 1 {
		t.Fatalf("committed delta = %d", after.Committed-before.Committed)
	}
	if after.PageAccesses <= before.PageAccesses {
		t.Fatal("page accesses did not grow")
	}
	if after.Elapsed < before.Elapsed {
		t.Fatal("elapsed went backwards")
	}
}

func TestCloseMakesDataDeviceSelfContained(t *testing.T) {
	r := newRig(t, PolicyFaCEGSC)
	db := r.open(t, false)
	tx := begin(t, db)
	var ids []page.ID
	for i := 0; i < 300; i++ {
		id, _ := tx.Alloc(page.TypeHeap)
		ids = append(ids, id)
		writeValue(t, tx, id, uint64(i)*7)
	}
	tx.commit()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Update after close fails.
	if err := db.Update(context.Background(), func(*Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after Close: %v", err)
	}
	// Closing twice is fine.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without the flash cache: every committed value must be
	// readable straight from disk.
	cfg := r.cfg
	cfg.Policy = PolicyNone
	cfg.FlashDev = nil
	cfg.FlashFrames = 0
	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tx2 := begin(t, db2)
	for i, id := range ids {
		if got := readValue(t, tx2, id); got != uint64(i)*7 {
			t.Fatalf("page %d = %d after Close, want %d", id, got, uint64(i)*7)
		}
	}
	tx2.commit()
}

// TestCrashRecoversManySmallCommits crashes each policy after a stream of
// one-page transactions through an 8-page buffer, so most committed
// versions were evicted to the cache (or disk) and superseded several
// times before the crash.  Restart must reproduce the last committed
// value of every page.
func TestCrashRecoversManySmallCommits(t *testing.T) {
	for _, policy := range allPolicies() {
		t.Run(string(policy), func(t *testing.T) {
			r := newRig(t, policy)
			r.cfg.BufferPages = 8
			db := r.open(t, false)
			ctx := context.Background()

			var ids []page.ID
			if err := db.Update(ctx, func(tx *Tx) error {
				for i := 0; i < 48; i++ {
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
			for round := 0; round < 6; round++ {
				for i, id := range ids {
					if err := db.Update(ctx, func(tx *Tx) error {
						writeValue(t, tx, id, uint64(round*1000+i))
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			db.Crash()

			db2 := r.open(t, true)
			defer db2.Close()
			if err := db2.View(ctx, func(tx *Tx) error {
				for i, id := range ids {
					if got := readValue(t, tx, id); got != uint64(5000+i) {
						t.Fatalf("page %d = %d, want %d", id, got, 5000+i)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCloseWritesEveryCachedVersionHome closes each policy while most of
// its dirty pages live only in the flash cache, several versions deep, and
// reopens the data device alone: Close must have written the newest
// committed version of every page to disk.
func TestCloseWritesEveryCachedVersionHome(t *testing.T) {
	for _, policy := range allPolicies() {
		t.Run(string(policy), func(t *testing.T) {
			r := newRig(t, policy)
			r.cfg.BufferPages = 8
			db := r.open(t, false)
			ctx := context.Background()

			var ids []page.ID
			if err := db.Update(ctx, func(tx *Tx) error {
				for i := 0; i < 40; i++ {
					id, err := tx.Alloc(page.TypeHeap)
					if err != nil {
						return err
					}
					writeValue(t, tx, id, uint64(i))
					ids = append(ids, id)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 3; round++ {
				if err := db.Update(ctx, func(tx *Tx) error {
					for i, id := range ids {
						writeValue(t, tx, id, uint64(round*7000+i))
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			cfg := r.cfg
			cfg.Policy = PolicyNone
			cfg.FlashDev = nil
			cfg.FlashFrames = 0
			db2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if err := db2.View(ctx, func(tx *Tx) error {
				for i, id := range ids {
					if got := readValue(t, tx, id); got != uint64(21000+i) {
						t.Fatalf("page %d = %d, want %d (dirty page lost across Close)", id, got, 21000+i)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotPipelineStaysZero pins the documented contract of
// Snapshot.Pipeline: the cache writes its groups inline, so after work
// that fills and replaces flash groups every pipeline counter, and the
// group fill derived from them, is still zero.
func TestSnapshotPipelineStaysZero(t *testing.T) {
	r := newRig(t, PolicyFaCEGR)
	r.cfg.BufferPages = 8
	db := r.open(t, false)
	defer db.Close()
	ctx := context.Background()
	if err := db.Update(ctx, func(tx *Tx) error {
		for i := 0; i < 32; i++ {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			writeValue(t, tx, id, uint64(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := db.Snapshot()
	if s.Cache.FlashPageWrites == 0 {
		t.Fatal("no flash writes: the cache was not exercised")
	}
	if s.Pipeline != (metrics.PipelineStats{}) || s.Pipeline.GroupFill() != 0 {
		t.Fatalf("pipeline counters moved: %+v", s.Pipeline)
	}
}

func TestAllocExhaustsDevice(t *testing.T) {
	r := &testRig{
		data: device.NewArray("data", device.ProfileCheetah15K, 1, 4),
		log:  device.New("log", device.ProfileCheetah15K, 256),
	}
	r.cfg = Config{DataDev: r.data, LogDev: r.log, BufferPages: 4, Policy: PolicyNone}
	db := r.open(t, false)
	defer db.Close()
	tx := begin(t, db)
	for {
		_, err := tx.Alloc(page.TypeHeap)
		if err != nil {
			return // expected: device full
		}
		if db.NumPages() > 10 {
			t.Fatal("allocation never hit the device capacity")
		}
	}
}

// TestIdenticalRunsIdenticalCountersAcrossCheckpoint: a checkpoint stages
// the dirty pages into the flash cache in page order, not in the order a map
// happens to yield them, so two runs of one workload agree on every device,
// buffer and cache counter afterwards.
func TestIdenticalRunsIdenticalCountersAcrossCheckpoint(t *testing.T) {
	// What is counted or modelled; not what the wall clock times.
	type counters struct {
		Elapsed          time.Duration
		PageAccesses     int64
		Pool             buffer.Stats
		Cache            face.Stats
		Data, Log, Flash device.Stats
	}
	run := func() counters {
		r := newRig(t, PolicyFaCEGSC)
		r.cfg.FlashFrames = 64
		db := r.open(t, false)
		defer db.Close()
		tx := begin(t, db)
		var ids []page.ID
		for i := 0; i < 150; i++ {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		touch := func(n int) {
			for i := 0; i < n; i++ {
				writeValue(t, tx, ids[(i*37)%len(ids)], uint64(i))
			}
		}
		touch(400)
		if err := tx.commit(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			tx = begin(t, db)
			touch(300)
			if err := tx.commit(); err != nil {
				t.Fatal(err)
			}
		}
		s := db.Snapshot()
		return counters{s.Elapsed, s.PageAccesses, s.Pool, s.Cache, s.Data, s.Log, s.Flash}
	}
	first := run()
	for i := 0; i < 4; i++ {
		if again := run(); first != again {
			t.Fatalf("run %d differs from the first:\n%+v\n%+v", i+2, first, again)
		}
	}
}
