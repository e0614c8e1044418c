package wal

// Sync-ordering tests: on a device with a durability barrier (file-backed
// devices), Force must not return before the barrier, and a failed barrier
// must not let durable advance.  The tests drive the manager over tearDev
// (tear_test.go), which journals every write and barrier, so they run
// against the simulated device yet assert the exact write/sync interleaving
// a file-backed device would see.

import (
	"errors"
	"testing"
)

func TestForceSyncsAfterWrite(t *testing.T) {
	dev := newTearDev(nil)
	m, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	opened := dev.events()

	lsn, err := m.Append(&Record{Type: TypeCommit, TxID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.events(); got != opened {
		t.Fatalf("Append touched the device: %d events", got-opened)
	}
	if err := m.Force(lsn + 1); err != nil {
		t.Fatal(err)
	}
	events := dev.journal[opened:]
	// Every write must be followed by a sync before Force returns: the
	// first event is a write, the last the barrier, and it is the only one.
	if len(events) < 2 || events[0].blk < 0 || events[len(events)-1].blk >= 0 {
		t.Fatalf("Force left events %+v; want writes, then the barrier", events)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.blk < 0 {
			t.Fatalf("Force issued more than one barrier: %+v", events)
		}
	}
	// Already durable: no further I/O.
	forced := dev.events()
	if err := m.Force(lsn); err != nil {
		t.Fatal(err)
	}
	if got := dev.events(); got != forced {
		t.Fatalf("redundant Force touched the device: %d events", got-forced)
	}
}

// TestForceFailedSyncDoesNotAdvanceDurable: a failed barrier moves neither
// durable nor "newest durable image" — the round after it writes the same
// log tail entry again, never the one holding the last acknowledged image,
// so garbling what that round writes loses nothing that was acknowledged.
func TestForceFailedSyncDoesNotAdvanceDurable(t *testing.T) {
	dev := newTearDev(nil)
	m, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	entryOf := func(event int) int64 {
		blk := dev.journal[event].blk
		if blk < m.dataBlocks {
			t.Fatalf("event %d wrote block %d, want a log tail entry", event, blk)
		}
		return blk
	}
	acked := dev.events()
	commitOne(t, m, 1)

	wantErr := errors.New("injected fsync failure")
	dev.failSyncs(wantErr)
	durableBefore := m.Durable()
	failed := dev.events()
	lsn, err := m.Append(&Record{Type: TypeCommit, TxID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Force(lsn + 1); !errors.Is(err, wantErr) {
		t.Fatalf("Force with failing sync: %v, want injected error", err)
	}
	if got := m.Durable(); got != durableBefore {
		t.Fatalf("durable advanced to %d despite failed sync (was %d)", got, durableBefore)
	}

	// Once the barrier works again the same records become durable.
	dev.failSyncs(nil)
	retried := dev.events()
	commitOne(t, m, 3)
	if got := m.Durable(); got != m.Next() {
		t.Fatalf("durable %d after the successful retry, log ends at %d", got, m.Next())
	}
	m.Close()
	if entryOf(failed) == entryOf(acked) || entryOf(retried) != entryOf(failed) {
		t.Fatalf("entries written at blocks %d (acknowledged), %d (barrier failed), %d (retry): the retry must rewrite the failed round's entry",
			entryOf(acked), entryOf(failed), entryOf(retried))
	}
	run, recs, err := reopen(Config{}, crashImage(nil, dev.journal, retried, 0, tear{damaged: true}))
	if err != nil {
		t.Fatal(err)
	}
	run.m.Close()
	if len(recs) != 1 || recs[0].tx != 1 {
		t.Fatalf("a tear of the retried entry write left %+v, want the acknowledged commit of tx 1", recs)
	}
}
