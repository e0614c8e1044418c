package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

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
	if !m.Pipelined() {
		t.Fatal("expected the pipeline front end")
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

// TestWalCompatModeSingleSegment: Config{Segments: 1} selects the mutex
// front end; its log must be readable by a default (pipeline) manager.
func TestWalCompatModeSingleSegment(t *testing.T) {
	dev := newLogDevice()
	m, err := OpenConfig(dev, Config{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pipelined() {
		t.Fatal("Segments: 1 must select the compat front end")
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
	if !m2.Pipelined() {
		t.Fatal("default Open must select the pipeline front end")
	}
	count := 0
	if err := m2.Iterate(0, func(r *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("pipeline manager replayed %d compat records, want %d", count, n)
	}
}

// TestWalTornTailRepairedBySlot simulates a torn in-place rewrite of the
// partial tail block: on a device with a durability barrier the
// double-write slot must restore the staged image at Open, so every
// acknowledged record survives.
func TestWalTornTailRepairedBySlot(t *testing.T) {
	inner := device.New("log", device.ProfileCheetah15K, 1<<12)
	rec := &syncRecorder{Dev: inner}
	m, err := Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	// First force: the tail block is fresh (no staging needed).  Second
	// force rewrites the now-partial tail block in place and must stage it
	// through the slot first.
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
	if s := m.Stats(); s.TornSlotWrites == 0 {
		t.Fatal("rewriting a partial tail block did not stage through the torn-tail slot")
	}
	durable := m.Durable()
	if m.off(durable)%device.BlockSize == 0 {
		t.Fatal("test setup: tail block is not partial")
	}
	m.Crash()

	// Tear the in-place rewrite: garbage the whole tail block, as a
	// host crash mid-write would.
	tailBlk := int64(m.off(durable)/device.BlockSize) + controlBlocks
	if err := inner.WriteAt(tailBlk, bytes.Repeat([]byte{0xFF}, device.BlockSize)); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Durable() != durable {
		t.Fatalf("recovered durable %d, want %d: torn tail not repaired", m2.Durable(), durable)
	}
	var commits []TxID
	if err := m2.Iterate(0, func(r *Record) error {
		commits = append(commits, r.TxID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(commits) != 2 || commits[0] != 1 || commits[1] != 2 {
		t.Fatalf("recovered commits %v, want [1 2]", commits)
	}
}

// TestWalTornTailUnprotectedLoses is the control for the repair test: on a
// simulated device (no durability barrier, atomic block writes assumed)
// the slot is inactive and no staging I/O is paid.
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
		t.Fatalf("simulated device paid %d torn-slot staging writes", s.TornSlotWrites)
	}
}

// TestWalSyncerFsyncFailureUnparksWaiters: an injected fsync failure must
// leave durable unmoved and unpark every parked Force caller with the
// error; once the barrier works again the same records become durable.
func TestWalSyncerFsyncFailureUnparksWaiters(t *testing.T) {
	rec := &syncRecorder{Dev: device.New("log", device.ProfileCheetah15K, 1<<12)}
	m, err := Open(rec)
	if err != nil {
		t.Fatal(err)
	}
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
	rec.mu.Lock()
	rec.syncErr = wantErr
	rec.mu.Unlock()

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

	rec.mu.Lock()
	rec.syncErr = nil
	rec.mu.Unlock()
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if m.Durable() != m.Next() {
		t.Fatal("records did not become durable after the barrier recovered")
	}
}
