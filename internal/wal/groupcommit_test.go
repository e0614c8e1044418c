package wal

import (
	"sync"
	"testing"
	"time"

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

// TestGroupCommitBatchesConcurrentForces: N committers that have all
// appended their commit records before any Force starts must share one
// device write.
func TestGroupCommitBatchesConcurrentForces(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	const committers = 8
	m.SetCollectionWindow(5 * time.Millisecond)
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
	wg.Wait()

	writes := m.Forces() - before
	if writes < 1 || writes > 2 {
		t.Fatalf("%d committers performed %d device writes, want 1 (2 tolerated)", committers, writes)
	}
	gc := m.Stats()
	if gc.ForceRequests != committers {
		t.Fatalf("ForceRequests = %d, want %d", gc.ForceRequests, committers)
	}
	if gc.Piggybacked < committers-int64(writes) {
		t.Fatalf("Piggybacked = %d with %d writes, want >= %d", gc.Piggybacked, writes, committers-int64(writes))
	}
	if m.Durable() < lsns[committers-1]+1 {
		t.Fatal("group commit left the last committer non-durable")
	}
}

// TestGroupCommitForcesGrowSublinearly runs the same committer count
// sequentially (fan-in 1) and concurrently (leader/follower), and requires
// the concurrent run to need strictly fewer device writes per committer.
func TestGroupCommitForcesGrowSublinearly(t *testing.T) {
	const committers = 8
	const rounds = 4

	run := func(concurrent bool) int64 {
		m, err := Open(newLogDevice())
		if err != nil {
			t.Fatal(err)
		}
		m.SetCollectionWindow(5 * time.Millisecond)
		m.AddCommitter(committers)
		defer m.AddCommitter(-committers)
		before := m.Forces()
		for r := 0; r < rounds; r++ {
			if concurrent {
				var wg sync.WaitGroup
				for c := 0; c < committers; c++ {
					wg.Add(1)
					go func(tx TxID) {
						defer wg.Done()
						commitOne(t, m, tx)
					}(TxID(r*committers + c + 1))
				}
				wg.Wait()
			} else {
				for c := 0; c < committers; c++ {
					commitOne(t, m, TxID(r*committers+c+1))
				}
			}
		}
		return m.Forces() - before
	}

	sequential := run(false)
	concurrent := run(true)
	total := int64(committers * rounds)
	if sequential != total {
		t.Fatalf("sequential committers should force once each: forces=%d commits=%d", sequential, total)
	}
	// Every concurrent round must batch at least somewhat; on average the
	// fan-in should comfortably exceed 2.
	if concurrent > total/2 {
		t.Fatalf("concurrent forces=%d for %d commits: fan-in %.2f, want >= 2",
			concurrent, total, float64(total)/float64(concurrent))
	}
}

// TestGroupCommitDisabledByDefault: without a window, Force behaves as
// before — each short-of-durable call writes.
func TestGroupCommitDisabledByDefault(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
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

// TestGroupCommitSoloCommitterSkipsWindow: with one registered committer
// the leader must not sit in the collection window.
func TestGroupCommitSoloCommitterSkipsWindow(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	m.SetCollectionWindow(time.Second)
	m.AddCommitter(1)
	defer m.AddCommitter(-1)
	start := time.Now()
	commitOne(t, m, 1)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("solo commit took %v: leader waited in the window", d)
	}
	if got := m.Forces(); got != 1 {
		t.Fatalf("Forces = %d, want 1", got)
	}
}

// TestGroupCommitEarlyClose: a full batch completes well before the
// window expires.
func TestGroupCommitEarlyClose(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	const committers = 4
	m.SetCollectionWindow(10 * time.Second) // far beyond the test timeout
	m.AddCommitter(committers)
	defer m.AddCommitter(-committers)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			commitOne(t, m, tx)
		}(TxID(c + 1))
	}
	wg.Wait()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("full batch still waited %v", d)
	}
	if m.Durable() != m.Next() {
		t.Fatal("commits not durable")
	}
}

// TestGroupCommitStaleHintStopsStalling: a lone committer on a manager
// whose hint promises more (e.g. MaxWriters set but one goroutine
// running) must stop paying the collection window after a short solo
// streak, instead of stalling every commit for the full window.
func TestGroupCommitStaleHintStopsStalling(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	const window = 50 * time.Millisecond
	m.SetCollectionWindow(window)
	m.SetCommitters(4) // stale: nobody else will ever join
	defer m.SetCommitters(0)

	const commits = 20
	start := time.Now()
	for i := 0; i < commits; i++ {
		commitOne(t, m, TxID(i+1))
	}
	elapsed := time.Since(start)
	// Only the initial streak and the periodic probes may pay the
	// window: well under half the commits, nowhere near all of them.
	if elapsed > time.Duration(commits)*window/2 {
		t.Fatalf("%d solo commits took %v: stale hint still stalls every commit", commits, elapsed)
	}
	if got := m.Forces(); got != commits {
		t.Fatalf("Forces = %d, want %d", got, commits)
	}
}
