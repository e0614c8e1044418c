package wal

import (
	"runtime"
	"sync"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// commitOne appends a commit record for tx and forces the log past it, the
// way the engine's commit path does.
func commitOne(t *testing.T, m *Manager, tx TxID) {
	t.Helper()
	lsn, err := m.Append(&Record{Type: TypeCommit, TxID: tx})
	if err != nil {
		t.Error(err)
		return
	}
	if err := m.Force(lsn + 1); err != nil {
		t.Error(err)
	}
}

// heldSyncDev is a log device with a durability barrier the test can hold:
// while held, every Sync blocks until release.  A round held in its barrier
// keeps the log from becoming durable, so every force issued meanwhile
// parks, and the next round takes them together — the barrier in flight is
// the batch, without depending on how the scheduler interleaves the
// committers.
type heldSyncDev struct {
	*device.Device
	gate sync.RWMutex
}

func newHeldSyncDev() *heldSyncDev {
	return &heldSyncDev{Device: newLogDevice()}
}

func (d *heldSyncDev) Sync() error {
	d.gate.RLock()
	d.gate.RUnlock()
	return nil
}

func (d *heldSyncDev) hold()    { d.gate.Lock() }
func (d *heldSyncDev) release() { d.gate.Unlock() }

// waitParked yields until at least n forces have parked on m's waitlist
// since it opened.
func waitParked(m *Manager, n int64) {
	for m.Stats().DurableWaits < n {
		runtime.Gosched()
	}
}

// TestGroupCommitBatchesConcurrentForces: N committers that have all
// appended their commit records before any Force starts share one device
// write.  The barrier is held until every force has parked, so none of them
// finds the log already durable: each is a force request, and the first
// round's write — which extends to the high-water mark — covers them all.
func TestGroupCommitBatchesConcurrentForces(t *testing.T) {
	dev := newHeldSyncDev()
	m, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const committers = 8
	m.AddCommitter(committers)
	defer m.AddCommitter(-committers)

	lsns := make([]page.LSN, committers)
	for i := range lsns {
		lsn, err := m.Append(&Record{Type: TypeCommit, TxID: TxID(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	before := m.Forces()
	waits := m.Stats().DurableWaits

	dev.hold()
	var wg sync.WaitGroup
	for _, lsn := range lsns {
		wg.Add(1)
		go func(lsn page.LSN) {
			defer wg.Done()
			if err := m.Force(lsn + 1); err != nil {
				t.Error(err)
			}
		}(lsn)
	}
	waitParked(m, waits+committers)
	dev.release()
	wg.Wait()

	if writes := m.Forces() - before; writes != 1 {
		t.Fatalf("%d committers performed %d device writes, want 1", committers, writes)
	}
	gc := m.Stats()
	if gc.ForceRequests != committers {
		t.Fatalf("ForceRequests = %d, want %d", gc.ForceRequests, committers)
	}
	if gc.Piggybacked != committers-1 {
		t.Fatalf("Piggybacked = %d with one write, want %d", gc.Piggybacked, committers-1)
	}
	if m.Durable() < lsns[committers-1]+1 {
		t.Fatal("group commit left the last committer non-durable")
	}
}

// TestGroupCommitForcesGrowSublinearly runs the same committer count
// sequentially (fan-in 1) and concurrently, and requires the concurrent run
// to need strictly fewer device writes per committer.  Each concurrent batch
// holds the barrier of its first round until every committer has parked, so
// the batch costs at most two rounds: the held one and the one that takes
// every force that parked behind it.
func TestGroupCommitForcesGrowSublinearly(t *testing.T) {
	const committers = 8
	const rounds = 4

	run := func(concurrent bool) int64 {
		dev := newHeldSyncDev()
		m, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		m.AddCommitter(committers)
		defer m.AddCommitter(-committers)
		before := m.Forces()
		for r := 0; r < rounds; r++ {
			if !concurrent {
				for c := 0; c < committers; c++ {
					commitOne(t, m, TxID(r*committers+c+1))
				}
				continue
			}
			waits := m.Stats().DurableWaits
			dev.hold()
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func(tx TxID) {
					defer wg.Done()
					commitOne(t, m, tx)
				}(TxID(r*committers + c + 1))
			}
			waitParked(m, waits+committers)
			dev.release()
			wg.Wait()
		}
		return m.Forces() - before
	}

	sequential := run(false)
	concurrent := run(true)
	total := int64(committers * rounds)
	if sequential != total {
		t.Fatalf("sequential committers should force once each: forces=%d commits=%d", sequential, total)
	}
	if concurrent > 2*rounds {
		t.Fatalf("concurrent forces=%d for %d commits in %d batches: fan-in %.2f, want at most 2 forces a batch",
			concurrent, total, rounds, float64(total)/float64(concurrent))
	}
}

// TestGroupCommitDisabledByDefault: a lone registered committer's forces
// are not held back for company: each short-of-durable call writes at once.
func TestGroupCommitDisabledByDefault(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.AddCommitter(1)
	defer m.AddCommitter(-1)
	for i := 0; i < 4; i++ {
		commitOne(t, m, TxID(i+1))
	}
	if got := m.Forces(); got != 4 {
		t.Fatalf("Forces = %d, want 4", got)
	}
	gc := m.Stats()
	if gc.ForceRequests != 4 || gc.Piggybacked != 0 {
		t.Fatalf("stats = %+v, want 4 unbatched requests", gc)
	}
}
