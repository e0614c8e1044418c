package tpcc

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/face"
)

// newLockEngine opens an engine admitting at most maxWriters concurrent
// Update transactions (0 = unlimited) for multi-terminal tests.
func newLockEngine(t *testing.T, maxWriters int) *engine.DB {
	t.Helper()
	cfg := engine.Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 4, 32768),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<16),
		BufferPages: 128,
		Policy:      engine.PolicyNone,
		MaxWriters:  maxWriters,
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestRunTerminalsConcurrent drives the full TPC-C mix from four
// terminals under the page-lock scheduler and checks the workload
// completed exactly, deadlock victims included.
func TestRunTerminalsConcurrent(t *testing.T) {
	eng := newLockEngine(t, 4)
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(eng, db, 42)
	const total = 200
	if err := dr.RunTerminals(context.Background(), 4, total); err != nil {
		t.Fatal(err)
	}
	c := dr.Counts()
	if got := c.Total() + c.RolledBack; got != total {
		t.Fatalf("completed %d transactions, want %d (counts %+v)", got, total, c)
	}
	if c.NewOrders() == 0 || c.Committed[KindPayment] == 0 {
		t.Fatalf("mix missing kinds: %+v", c)
	}
	snap := eng.Snapshot()
	if snap.Committed == 0 {
		t.Fatal("engine recorded no commits")
	}
	if c.DeadlockRetries > 0 && snap.Locks.Deadlocks == 0 {
		t.Fatalf("driver retried %d deadlocks the engine never reported", c.DeadlockRetries)
	}
	t.Logf("locks: %+v", snap.Locks)
	t.Logf("wal: %+v (group-commit fan-in %.2f)", snap.Wal, snap.Wal.CoalesceFactor())
	t.Logf("deadlock retries: %d", c.DeadlockRetries)

	// The database must be consistent after concurrent execution: every
	// committed New-Order advanced exactly one district's next-order id,
	// and rolled-back ones were undone, so the total advance equals the
	// committed New-Order count.
	cfg := db.Config()
	var advanced int64
	err = eng.View(context.Background(), func(tx *engine.Tx) error {
		for w := 1; w <= cfg.Warehouses; w++ {
			for dist := 1; dist <= cfg.DistrictsPerWarehouse; dist++ {
				rid := db.districtRID[districtKey(w, dist)]
				if err := db.district.Get(tx, rid, func(rec []byte) error {
					advanced += int64(districtNextOrder(rec) - (cfg.InitialOrdersPerDistrict + 1))
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
	if advanced != c.NewOrders() {
		t.Fatalf("district order ids advanced by %d, want %d committed New-Orders (lost or phantom updates)",
			advanced, c.NewOrders())
	}
}

// TestRunTerminalsTakeNoLockUpgrade: every write to an index or a heap page
// locks the page exclusively before it reads it, so neither the load nor
// four terminals running the full mix — New-Order's index inserts and
// splits, Delivery's removal of each district's oldest new order — ever
// convert a shared page lock into an exclusive one.
func TestRunTerminalsTakeNoLockUpgrade(t *testing.T) {
	eng := newLockEngine(t, 0)
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(eng, db, 42)
	if err := dr.RunTerminals(context.Background(), 4, 200); err != nil {
		t.Fatal(err)
	}
	if c := dr.Counts(); c.NewOrders() == 0 || c.Committed[KindDelivery] == 0 {
		t.Fatalf("mix missing New-Order or Delivery: %+v", c)
	}
	if l := eng.Snapshot().Locks; l.Upgrades != 0 {
		t.Fatalf("%d lock upgrades, want none (locks %+v)", l.Upgrades, l)
	}
}

// TestRunTerminalsDeterministicWorkload: the transaction schedule depends
// only on the seed, not the terminal count — the committed mix of a
// 1-terminal and a 4-terminal run over the same seed must match.
func TestRunTerminalsDeterministicWorkload(t *testing.T) {
	run := func(terminals int) Counts {
		eng := newLockEngine(t, terminals)
		db, err := Load(eng, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		dr := NewDriver(eng, db, 99)
		if err := dr.RunTerminals(context.Background(), terminals, 120); err != nil {
			t.Fatal(err)
		}
		return dr.Counts()
	}
	one := run(1)
	four := run(4)
	if one.Committed != four.Committed || one.RolledBack != four.RolledBack {
		t.Fatalf("workload depends on terminal count:\n 1 terminal: %+v\n 4 terminals: %+v", one, four)
	}
}

// TestRunTerminalsSingleWriterFallback: RunTerminals also works with
// writers serialised by a writer cap of one (WithMaxWriters(1)); the
// read-only kinds still overlap them, so any deadlock they lose is retried
// and reported by the engine.
func TestRunTerminalsSingleWriterFallback(t *testing.T) {
	eng := newLockEngine(t, 1)
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(eng, db, 7)
	if err := dr.RunTerminals(context.Background(), 3, 60); err != nil {
		t.Fatal(err)
	}
	c := dr.Counts()
	if got := c.Total() + c.RolledBack; got != 60 {
		t.Fatalf("completed %d transactions, want 60", got)
	}
	if c.DeadlockRetries > 0 && eng.Snapshot().Locks.Deadlocks == 0 {
		t.Fatalf("driver retried %d deadlocks the engine never reported", c.DeadlockRetries)
	}
}

// TestRunTerminalsCallerIsTerminalZero: the goroutine that calls
// RunTerminals is terminal 0.  One terminal commits a fixed schedule, to the
// transaction and the log byte; four commit the same schedule; and an error
// in the caller's own slot — here its clock tick, whose checkpoint cannot
// sync the data device — stops the other terminals and is what the call
// returns.
//
// wantLogBytes pins what one terminal logs for seed 99 over three runs of
// 40 transactions, so any change to what a transaction writes shows.  It
// includes the B-tree splits: the load inserts each index in key order,
// which leaves its leaves full, so the first new order of a district whose
// last keys share a leaf with the next district's first keys splits that
// leaf in the middle and logs the half it moves, as the new leaf's one
// format record.  An order's lines go into
// the table and the index a page at a time, and Delivery updates them so,
// one update record per page changed instead of one per line.
func TestRunTerminalsCallerIsTerminalZero(t *testing.T) {
	want := [numKinds]int64{55, 50, 6, 6, 3}
	const wantLogBytes = 111017
	for _, terminals := range []int{1, 4} {
		eng := newLockEngine(t, terminals)
		db, err := Load(eng, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		dr := NewDriver(eng, db, 99)
		mark := eng.Log().Next()
		for range 3 {
			if err := dr.RunTerminals(context.Background(), terminals, 40); err != nil {
				t.Fatal(err)
			}
		}
		c := dr.Counts()
		if c.Committed != want || c.RolledBack != 0 {
			t.Fatalf("%d terminals committed %v and rolled back %d, want %v and 0", terminals, c.Committed, c.RolledBack, want)
		}
		if n := eng.Log().Next() - mark; terminals == 1 && n != wantLogBytes {
			t.Fatalf("one terminal logged %d bytes, want %d", n, wantLogBytes)
		}
	}

	data := &syncFailDev{Dev: device.NewArray("data", device.ProfileCheetah15K, 4, 32768)}
	eng, err := engine.Open(engine.Config{
		DataDev:         data,
		LogDev:          device.New("log", device.ProfileCheetah15K, 1<<16),
		BufferPages:     128,
		MaxWriters:      4,
		CheckpointEvery: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	db, err := Load(eng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(eng, db, 99)
	data.fail.Store(true)
	const total = 1000
	err = dr.RunTerminals(context.Background(), 4, total)
	if !errors.Is(err, errSyncFailed) || !strings.HasPrefix(err.Error(), "tpcc: terminal 0: ") {
		t.Fatalf("RunTerminals returned %v, want terminal 0's %v", err, errSyncFailed)
	}
	if c := dr.Counts(); c.Total()+c.RolledBack >= total {
		t.Fatalf("the other terminals ran the whole schedule (%+v)", c)
	}
}

var errSyncFailed = errors.New("sync failed")

// syncFailDev is a device whose durability barrier fails once fail is set.
type syncFailDev struct {
	device.Dev
	fail atomic.Bool
}

func (d *syncFailDev) Sync() error {
	if d.fail.Load() {
		return errSyncFailed
	}
	return nil
}

// BenchmarkRunTerminalsOne prices one RunTerminals(ctx, 1, 1) call, the
// way the tpcc-miss benchmark issues each transaction.
func BenchmarkRunTerminalsOne(b *testing.B) {
	eng, err := engine.Open(engine.Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 4, 32768),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<20),
		BufferPages: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	db, err := Load(eng, tinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	dr := NewDriver(eng, db, 1)
	b.ReportAllocs()
	for b.Loop() {
		if err := dr.RunTerminals(context.Background(), 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTerminalsMiss is BenchmarkRunTerminalsOne in the tpcc-miss
// benchmark's shape: two warehouses behind a 64-page buffer and a face+gsc
// flash cache of 336 frames (segment 256), warmed up by 1 000 transactions,
// so that the buffer misses, evictions and stage-ins it runs are the ones
// the One benchmark, whose database fits its buffer, never reaches.
func BenchmarkRunTerminalsMiss(b *testing.B) {
	const frames, segment = 336, 256
	eng, err := engine.Open(engine.Config{
		DataDev:        device.NewArray("data", device.ProfileCheetah15K, 8, 1<<16),
		LogDev:         device.New("log", device.ProfileCheetah15K, 1<<20),
		FlashDev:       device.New("flash", device.ProfileSamsung470, face.FlashDeviceBlocks(frames, segment)+face.FlashDeviceSlack),
		BufferPages:    64,
		Policy:         engine.PolicyFaCEGSC,
		FlashFrames:    frames,
		SegmentEntries: segment,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	db, err := Load(eng, DefaultConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	dr := NewDriver(eng, db, 1)
	if err := dr.RunTerminals(context.Background(), 1, 1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := dr.RunTerminals(context.Background(), 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
