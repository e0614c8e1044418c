package wal

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// TestWalParallelAppendStormMatchesSerial: N committers appending and
// forcing concurrently (under -race) must produce a log that replays
// record-for-record like a serial run — same records, same LSNs, contiguous
// LSN space, nothing lost or duplicated.
func TestWalParallelAppendStormMatchesSerial(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := TxID(w*perWriter + i + 1)
				payload := []byte(fmt.Sprintf("writer %d record %d", w, i))
				lsn, err := m.Append(&Record{Type: TypeUpdate, TxID: tx, PageID: page.ID(w), Offset: uint16(i), Before: payload, After: payload})
				if err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					if err := m.Force(lsn + 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if m.Durable() != m.Next() {
		t.Fatalf("Durable %d != Next %d after ForceAll", m.Durable(), m.Next())
	}

	var recs []*Record
	if err := m.Iterate(0, func(r *Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
	}
	seen := make(map[TxID]bool, len(recs))
	for _, r := range recs {
		if seen[r.TxID] {
			t.Fatalf("record for tx %d replayed twice", r.TxID)
		}
		seen[r.TxID] = true
	}

	// Re-append the replayed stream to a fresh manager serially: the LSN
	// assignment and the replayed bytes must match exactly.
	serial, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		lsn, err := serial.Append(&Record{Type: r.Type, TxID: r.TxID, PageID: r.PageID, Edits: r.Edits})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != r.LSN {
			t.Fatalf("record %d: serial LSN %d != concurrent LSN %d", i, lsn, r.LSN)
		}
	}
	if err := serial.ForceAll(); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = serial.Iterate(0, func(r *Record) error {
		want := recs[i]
		if r.LSN != want.LSN || r.Type != want.Type || r.TxID != want.TxID ||
			r.PageID != want.PageID || !reflect.DeepEqual(r.Edits, want.Edits) {
			t.Fatalf("record %d differs between serial and concurrent logs", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(recs) {
		t.Fatalf("serial log replayed %d records, want %d", i, len(recs))
	}
}

// TestReserveRingWrapStallsAndRecovers drives far more bytes than the ring
// holds through concurrent appenders with no explicit forces: appenders
// must stall on the full ring, the syncer must drain it on demand, and the
// final log must hold every record.
func TestReserveRingWrapStallsAndRecovers(t *testing.T) {
	dev := device.New("log", device.ProfileCheetah15K, 4096)
	m, err := OpenConfig(dev, Config{Segments: 2, SegmentBytes: 2048}) // 4 KiB ring
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 100
	payload := make([]byte, 150)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := m.Append(&Record{Type: TypeUpdate, TxID: TxID(w*perWriter + i + 1), Before: payload, After: payload}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := m.Iterate(0, func(r *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", count, writers*perWriter)
	}
	if s := m.Stats(); s.ReserveStalls == 0 {
		t.Fatalf("no reservation stalls despite a %d-byte ring and %d bytes appended", 4096, writers*perWriter*len(payload))
	}
}

// TestReserveStallSurvivesConcurrentForces: appenders that force every
// record they append keep a 4 KiB ring on the edge of full, so an appender
// often finds it full from a flushed offset that a concurrent force then
// moves past, sometimes to the end of an empty ring.  Its stall must end
// then: waiting for a flush the ring no longer needs hangs every appender
// behind it.
func TestReserveStallSurvivesConcurrentForces(t *testing.T) {
	payload := make([]byte, 900) // two records fill the ring
	for round := 0; round < 2000; round++ {
		m, err := OpenConfig(device.New("log", device.ProfileCheetah15K, 1<<15), Config{Segments: 2, SegmentBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					lsn, err := m.Append(&Record{Type: TypeUpdate, TxID: TxID(w*100 + i + 1), Before: payload, After: payload})
					if err == nil {
						err = m.Force(lsn)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: appenders stalled on a ring with room (%d stalls)", round, m.Stats().ReserveStalls)
		}
		m.Close()
	}
}

// TestWalRejectsSingleSegment: the ring needs two segments; a smaller
// geometry is an error that leaves the device untouched, and a log written
// through a shrunken ring reads back under the default one.
func TestWalRejectsSingleSegment(t *testing.T) {
	dev := newLogDevice()
	if _, err := OpenConfig(dev, Config{Segments: 1}); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("Segments: 1 accepted, or the error does not name the minimum: %v", err)
	}
	if ops := dev.Stats().Ops(); ops != 0 {
		t.Fatalf("rejected configuration touched the device (%d operations)", ops)
	}
	m, err := OpenConfig(dev, Config{Segments: 2, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := m.Append(&Record{Type: TypeCommit, TxID: TxID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	m.Crash()

	m2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := m2.Iterate(0, func(r *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("default manager replayed %d records, want %d", count, n)
	}
}

// TestWalTornTailUnprotectedLoses is the control for the torn-write sweep
// (tear_test.go): on a simulated device (no durability barrier, atomic block
// writes assumed) the partial tail is rewritten in place and no log tail
// entry is ever written.
func TestWalTornTailUnprotectedLoses(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(&Record{Type: TypeCommit, TxID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(&Record{Type: TypeCommit, TxID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.TornSlotWrites != 0 {
		t.Fatalf("simulated device paid %d log tail entry writes", s.TornSlotWrites)
	}
}

// TestWalSyncerFsyncFailureUnparksWaiters: an injected fsync failure must
// leave durable unmoved and unpark every parked Force caller with the
// error; once the barrier works again the same records become durable — by
// a barrier alone, nothing is written twice — and the entry that barrier
// covered is the one the next round leaves alone: garbling the entry that
// round writes loses none of them.
func TestWalSyncerFsyncFailureUnparksWaiters(t *testing.T) {
	dev := newTearDev(nil)
	m, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const committers = 4
	lsns := make([]page.LSN, committers)
	for i := range lsns {
		lsn, err := m.Append(&Record{Type: TypeCommit, TxID: TxID(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}

	wantErr := errors.New("injected fsync failure")
	dev.failSyncs(wantErr)

	durableBefore := m.Durable()
	errs := make(chan error, committers)
	var wg sync.WaitGroup
	for _, lsn := range lsns {
		wg.Add(1)
		go func(lsn page.LSN) {
			defer wg.Done()
			errs <- m.Force(lsn + 1)
		}(lsn)
	}
	wg.Wait()
	close(errs)
	got := 0
	for err := range errs {
		got++
		if !errors.Is(err, wantErr) {
			t.Fatalf("parked Force returned %v, want the injected fsync error", err)
		}
	}
	if got != committers {
		t.Fatalf("%d of %d parked forces unparked", got, committers)
	}
	if m.Durable() != durableBefore {
		t.Fatalf("durable advanced to %d despite failed fsync (was %d)", m.Durable(), durableBefore)
	}
	if s := m.Stats(); s.DurableWaits < committers {
		t.Fatalf("DurableWaits = %d, want >= %d", s.DurableWaits, committers)
	}

	dev.failSyncs(nil)
	writes := m.Stats().TornSlotWrites
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if m.Durable() != m.Next() {
		t.Fatal("records did not become durable after the barrier recovered")
	}
	if w := m.Stats().TornSlotWrites; w != writes {
		t.Fatalf("the retried barrier came with %d more entry writes", w-writes)
	}

	retried := dev.events()
	commitOne(t, m, committers+1)
	if blk := dev.journal[retried].blk; blk < m.dataBlocks {
		t.Fatalf("the round after the retry wrote block %d, want a log tail entry", blk)
	}
	run, recs, err := reopen(Config{}, crashImage(nil, dev.journal, retried, 0, tear{damaged: true}))
	if err != nil {
		t.Fatal(err)
	}
	run.m.Close()
	if len(recs) != committers {
		t.Fatalf("%d records recovered after a tear of the round that followed the retry, want %d", len(recs), committers)
	}
}
