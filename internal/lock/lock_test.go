package lock

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/page"
)

func ctxb() context.Context { return context.Background() }

func mustAcquire(t *testing.T, m *Manager, tx uint64, id page.ID, mode Mode) {
	t.Helper()
	if err := m.Acquire(ctxb(), tx, id, mode); err != nil {
		t.Fatalf("tx %d acquiring %s on page %d: %v", tx, mode, id, err)
	}
}

// holding returns the mode tx holds on the page and whether it holds one.
func holding(m *Manager, tx uint64, id page.ID) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.txns[tx]; t != nil {
		i, ok := t.held.find(id)
		return t.held.slots[i].mode, ok
	}
	return Shared, false
}

// held returns the number of pages tx holds locks on.
func held(m *Manager, tx uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.txns[tx]; t != nil {
		return t.held.n
	}
	return 0
}

func TestSharedLocksCoexist(t *testing.T) {
	m := New()
	mustAcquire(t, m, 1, 10, Shared)
	mustAcquire(t, m, 2, 10, Shared)
	mustAcquire(t, m, 3, 10, Shared)
	if got := m.Stats().SharedGrants; got != 3 {
		t.Fatalf("SharedGrants = %d, want 3", got)
	}
	if got := m.Stats().Waits; got != 0 {
		t.Fatalf("Waits = %d, want 0", got)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	m.ReleaseAll(3)
	if held(m, 1)+held(m, 2)+held(m, 3) != 0 {
		t.Fatal("locks survived ReleaseAll")
	}
}

func TestReentrantAndCoveringGrants(t *testing.T) {
	m := New()
	mustAcquire(t, m, 1, 10, Exclusive)
	mustAcquire(t, m, 1, 10, Shared)    // X covers S
	mustAcquire(t, m, 1, 10, Exclusive) // re-entrant
	s := m.Stats()
	if s.ExclusiveGrants != 1 || s.SharedGrants != 0 {
		t.Fatalf("grants = %+v, want exactly one exclusive", s)
	}
	if mode, ok := holding(m, 1, 10); !ok || mode != Exclusive {
		t.Fatalf("Holding = %v,%v", mode, ok)
	}
}

func TestExclusiveBlocksAndHandsOver(t *testing.T) {
	m := New()
	mustAcquire(t, m, 1, 10, Exclusive)

	got := make(chan error, 1)
	go func() { got <- m.Acquire(ctxb(), 2, 10, Exclusive) }()

	// The second acquirer must be blocked, not failed.
	select {
	case err := <-got:
		t.Fatalf("second X acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatalf("handed-over acquire: %v", err)
	}
	s := m.Stats()
	if s.Waits != 1 || s.WaitTime <= 0 {
		t.Fatalf("stats = %+v, want one timed wait", s)
	}
}

// TestReleaseHandsOverEarly: a shared lock released before its
// transaction ends lets the writer queued behind it in at once, while the
// transaction keeps its other locks.
func TestReleaseHandsOverEarly(t *testing.T) {
	m := New()
	t1 := m.Begin(1)
	mustAcquire(t, m, 1, 10, Shared)
	mustAcquire(t, m, 1, 11, Shared)
	got := make(chan error, 1)
	go func() { got <- m.Acquire(ctxb(), 2, 10, Exclusive) }()
	for m.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	if !t1.Holds(10) {
		t.Fatal("Holds(10) = false before the release")
	}
	t1.Release(10)
	if err := <-got; err != nil {
		t.Fatalf("X acquire behind the released lock: %v", err)
	}
	if t1.Holds(10) || !t1.Holds(11) || held(m, 1) != 1 {
		t.Fatalf("after Release(10) tx 1 holds %d pages, page 10: %v, page 11: %v", held(m, 1), t1.Holds(10), t1.Holds(11))
	}
	t1.Release(10) // no longer held: nothing to do
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

func TestSoleHolderUpgradesInPlace(t *testing.T) {
	m := New()
	mustAcquire(t, m, 1, 10, Shared)
	mustAcquire(t, m, 1, 10, Exclusive)
	if mode, _ := holding(m, 1, 10); mode != Exclusive {
		t.Fatalf("mode after upgrade = %v", mode)
	}
	if s := m.Stats(); s.Upgrades != 1 || s.Waits != 0 {
		t.Fatalf("stats = %+v, want one immediate upgrade", s)
	}
}

// TestForcedDeadlockExactlyOneVictim builds the classic two-transaction
// cycle (T1: X(A) then X(B); T2: X(B) then X(A)) and requires that exactly
// one of them is refused with ErrDeadlock while the other completes.
func TestForcedDeadlockExactlyOneVictim(t *testing.T) {
	m := New()
	const a, b = page.ID(1), page.ID(2)
	mustAcquire(t, m, 1, a, Exclusive)
	mustAcquire(t, m, 2, b, Exclusive)

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		err := m.Acquire(ctxb(), 1, b, Exclusive)
		if err != nil {
			m.ReleaseAll(1)
		}
		errs <- err
	}()
	// Let T1 queue first so T2's request is the one closing the cycle.
	time.Sleep(10 * time.Millisecond)
	go func() {
		defer wg.Done()
		err := m.Acquire(ctxb(), 2, a, Exclusive)
		if err != nil {
			m.ReleaseAll(2)
		}
		errs <- err
	}()
	wg.Wait()
	close(errs)

	var deadlocks, ok int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrDeadlock):
			deadlocks++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks != 1 || ok != 1 {
		t.Fatalf("deadlocks=%d ok=%d, want exactly one victim", deadlocks, ok)
	}
	if s := m.Stats(); s.Deadlocks != 1 {
		t.Fatalf("Deadlocks stat = %d, want 1", s.Deadlocks)
	}
}

// TestUpgradeDeadlock: two transactions both hold S and both request X.
// Neither upgrade can ever be granted, so the second requester must be
// refused immediately rather than both waiting forever.
func TestUpgradeDeadlock(t *testing.T) {
	m := New()
	mustAcquire(t, m, 1, 10, Shared)
	mustAcquire(t, m, 2, 10, Shared)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctxb(), 1, 10, Exclusive) }()
	time.Sleep(10 * time.Millisecond)

	if err := m.Acquire(ctxb(), 2, 10, Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrader got %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatalf("first upgrader: %v", err)
	}
	if mode, _ := holding(m, 1, 10); mode != Exclusive {
		t.Fatal("surviving upgrader does not hold X")
	}
	m.ReleaseAll(1)
}

// TestUpgradeStorm hammers one page with transactions that all read then
// upgrade.  Deadlock victims must retry from scratch; every transaction
// must eventually complete exactly once.
func TestUpgradeStorm(t *testing.T) {
	m := New()
	const goroutines = 8
	var completed atomic.Int64
	// barrier makes every transaction hold S simultaneously before the
	// first upgrade attempt, so the storm actually collides.
	var barrier sync.WaitGroup
	barrier.Add(goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tx uint64) {
			defer wg.Done()
			first := true
			for {
				if err := m.Acquire(ctxb(), tx, 77, Shared); err != nil {
					m.ReleaseAll(tx)
					continue
				}
				if first {
					first = false
					barrier.Done()
					barrier.Wait()
				}
				if err := m.Acquire(ctxb(), tx, 77, Exclusive); err != nil {
					if !errors.Is(err, ErrDeadlock) {
						t.Errorf("tx %d: %v", tx, err)
						m.ReleaseAll(tx)
						return
					}
					m.ReleaseAll(tx)
					continue
				}
				completed.Add(1)
				m.ReleaseAll(tx)
				return
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if completed.Load() != goroutines {
		t.Fatalf("completed %d upgrades, want %d", completed.Load(), goroutines)
	}
	if s := m.Stats(); s.Deadlocks == 0 {
		t.Fatalf("upgrade storm produced no deadlocks: %+v", s)
	}
}

// TestContextCancellationUnblocksWaiter: a queued waiter whose context is
// cancelled returns promptly, and the queue keeps moving for everyone
// else.
func TestContextCancellationUnblocksWaiter(t *testing.T) {
	m := New()
	mustAcquire(t, m, 1, 10, Exclusive)

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- m.Acquire(ctx, 2, 10, Exclusive) }()
	time.Sleep(10 * time.Millisecond)

	// A third transaction queues behind the doomed waiter.
	third := make(chan error, 1)
	go func() { third <- m.Acquire(ctxb(), 3, 10, Exclusive) }()
	time.Sleep(10 * time.Millisecond)

	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter did not unblock")
	}
	if s := m.Stats(); s.Cancels != 1 {
		t.Fatalf("Cancels = %d, want 1", s.Cancels)
	}

	// The holder releases; the third transaction (not the cancelled one)
	// must receive the lock.
	m.ReleaseAll(1)
	select {
	case err := <-third:
		if err != nil {
			t.Fatalf("third waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queue stalled after a cancelled waiter was removed")
	}
	if mode, ok := holding(m, 3, 10); !ok || mode != Exclusive {
		t.Fatalf("third waiter holds %v,%v", mode, ok)
	}
	m.ReleaseAll(3)
}

// TestFIFOPreventsWriterStarvation: with readers arriving continuously, a
// queued writer still gets the lock as soon as the current readers drain.
func TestFIFOPreventsWriterStarvation(t *testing.T) {
	m := New()
	mustAcquire(t, m, 1, 10, Shared)

	wgot := make(chan error, 1)
	go func() { wgot <- m.Acquire(ctxb(), 2, 10, Exclusive) }()
	time.Sleep(10 * time.Millisecond)

	// A late reader must queue behind the writer, not join tx 1.
	rgot := make(chan error, 1)
	go func() { rgot <- m.Acquire(ctxb(), 3, 10, Shared) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-rgot:
		t.Fatalf("late reader jumped the writer queue: %v", err)
	default:
	}

	m.ReleaseAll(1)
	if err := <-wgot; err != nil {
		t.Fatalf("writer: %v", err)
	}
	// The late reader is still queued behind the writer's hold.
	select {
	case err := <-rgot:
		t.Fatalf("reader granted while writer holds X: %v", err)
	default:
	}
	m.ReleaseAll(2)
	if err := <-rgot; err != nil {
		t.Fatalf("reader after writer released: %v", err)
	}
	m.ReleaseAll(3)
}

// TestConcurrentDisjointThroughput is a smoke test under the race
// detector: many transactions over many pages, mixed modes, no external
// synchronization beyond the manager itself.
func TestConcurrentDisjointThroughput(t *testing.T) {
	m := New()
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			tx := uint64(1000 + seed)
			for i := 0; i < iters; i++ {
				own := page.ID(seed*iters + i + 1)
				shared := page.ID(7)
				if err := m.Acquire(ctxb(), tx, shared, Shared); err != nil {
					m.ReleaseAll(tx)
					continue
				}
				if err := m.Acquire(ctxb(), tx, own, Exclusive); err != nil {
					m.ReleaseAll(tx)
					continue
				}
				m.ReleaseAll(tx)
			}
		}(g)
	}
	wg.Wait()
	if held := held(m, 1000); held != 0 {
		t.Fatalf("locks leaked: %d", held)
	}
	if s := m.Stats(); s.Grants() == 0 {
		t.Fatalf("no grants recorded: %+v", s)
	}
}

// TestReentrantAcquireDoesNotReachManager: a request for a page the
// transaction already holds strongly enough is answered from its own lock
// state.  The test holds the manager's mutex meanwhile, so a request that
// visited the manager would block.
func TestReentrantAcquireDoesNotReachManager(t *testing.T) {
	m := New()
	tx := m.Begin(1)
	type req struct {
		id   page.ID
		mode Mode
	}
	for _, r := range []req{{10, Shared}, {11, Exclusive}} {
		if _, err := tx.Acquire(ctxb(), r.id, r.mode); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, r := range []req{{10, Shared}, {11, Shared}, {11, Exclusive}} {
			if waited, err := tx.Acquire(ctxb(), r.id, r.mode); err != nil || waited != 0 {
				t.Errorf("re-entrant %s on page %d: waited %v, %v", r.mode, r.id, waited, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("a re-entrant request waited for the manager's mutex")
	}
	m.mu.Unlock()
	<-done
	tx.ReleaseAll()
	if s := m.Stats(); s.Grants() != 2 || held(m, 1) != 0 {
		t.Fatalf("stats %+v, %d pages still held; want the 2 first grants and none held", s, held(m, 1))
	}
}

// TestAcquireReportsBlockedTime: Txn.Acquire reports zero for a request
// granted at once and, for one that queued, how long it blocked.
func TestAcquireReportsBlockedTime(t *testing.T) {
	m := New()
	holder := m.Begin(1)
	if waited, err := holder.Acquire(ctxb(), 10, Exclusive); err != nil || waited != 0 {
		t.Fatalf("uncontended grant: waited %v, %v", waited, err)
	}
	queued := m.Begin(2)
	got := make(chan time.Duration, 1)
	go func() {
		waited, err := queued.Acquire(ctxb(), 10, Shared)
		if err != nil {
			t.Error(err)
		}
		got <- waited
	}()
	for !waitingOn(m, 2, 10) {
		time.Sleep(time.Millisecond)
	}
	const hold = 5 * time.Millisecond
	time.Sleep(hold)
	holder.ReleaseAll()
	waited := <-got
	if waited < hold {
		t.Fatalf("queued request reported %v, want at least the %v it was held up", waited, hold)
	}
	if s := m.Stats(); s.Waits != 1 || s.WaitTime != waited {
		t.Fatalf("stats %+v, want one wait of %v", s, waited)
	}
	queued.ReleaseAll()
}

// BenchmarkLockAcquireRelease prices one transaction's locking: 32 pages,
// each read, written and read and written again — a grant, an upgrade and
// two re-entrant requests, about the mix of a TPC-C transaction's 143 page
// accesses over 37 pages — then ReleaseAll.  "txn" goes through the
// transaction's lock state as the engine does; "by-id" through the
// manager's id-keyed methods, which take the mutex for every request.
func BenchmarkLockAcquireRelease(b *testing.B) {
	modes := [...]Mode{Shared, Exclusive, Shared, Exclusive}
	b.Run("txn", func(b *testing.B) {
		m := New()
		b.ReportAllocs()
		var tx uint64
		for b.Loop() {
			tx++
			locks := m.Begin(tx)
			for i := range uint64(32) {
				for _, mode := range modes {
					if _, err := locks.Acquire(ctxb(), page.ID(tx*32+i), mode); err != nil {
						b.Fatal(err)
					}
				}
			}
			locks.ReleaseAll()
		}
	})
	b.Run("by-id", func(b *testing.B) {
		m := New()
		b.ReportAllocs()
		var tx uint64
		for b.Loop() {
			tx++
			for i := range uint64(32) {
				for _, mode := range modes {
					if err := m.Acquire(ctxb(), tx, page.ID(tx*32+i), mode); err != nil {
						b.Fatal(err)
					}
				}
			}
			m.ReleaseAll(tx)
		}
	})
}

// TestLargeTransactionGrowsAndShrinksItsHeldSet: a transaction holding
// thousands of pages still answers for each of them, releases all of them,
// and leaves its record and the manager's entry table small again.
func TestLargeTransactionGrowsAndShrinksItsHeldSet(t *testing.T) {
	m := New()
	const pages = 3000
	big := m.Begin(1)
	for id := page.ID(1); id <= pages; id++ {
		mode := Shared
		if id%2 == 0 {
			mode = Exclusive
		}
		if _, err := big.Acquire(ctxb(), id, mode); err != nil {
			t.Fatal(err)
		}
	}
	if held(m, 1) != pages {
		t.Fatalf("held = %d, want %d", held(m, 1), pages)
	}
	for id := page.ID(1); id <= pages; id++ {
		want := Shared
		if id%2 == 0 {
			want = Exclusive
		}
		if mode, ok := holding(m, 1, id); !ok || mode != want {
			t.Fatalf("page %d: holding = %v,%v, want %v", id, mode, ok, want)
		}
	}
	big.ReleaseAll()
	if len(big.held.slots) != minTableSlots || big.held.n != 0 || len(m.entries.slots) != minTableSlots || m.entries.n != 0 {
		t.Fatalf("after release: held set of %d slots and %d grants, entry table of %d slots and %d entries; want %d and 0 each",
			len(big.held.slots), big.held.n, len(m.entries.slots), m.entries.n, minTableSlots)
	}
}

// TestPageTableMatchesMap drives a page table and a map through the same
// random adds and removes over a small id range, so probe runs collide and
// wrap, and requires them to agree on every id after every step.
func TestPageTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab, ref := newPageTable(), map[page.ID]Mode{}
	e := &entry{}
	for step := 0; step < 20000; step++ {
		id := page.ID(rng.Intn(200))
		if rng.Intn(3) == 0 {
			tab.remove(id)
			delete(ref, id)
		} else {
			mode := Mode(rng.Intn(2))
			tab.put(grant{id: id, e: e, mode: mode})
			ref[id] = mode
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: table holds %d pages, map %d", step, tab.n, len(ref))
		}
		for id := page.ID(0); id < 200; id++ {
			i, ok := tab.find(id)
			want, in := ref[id]
			if ok != in || ok && tab.slots[i].mode != want {
				t.Fatalf("step %d: page %d found=%v mode=%v, map has %v,%v", step, id, ok, tab.slots[i].mode, in, want)
			}
		}
	}
}
