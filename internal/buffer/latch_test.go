package buffer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/page"
)

// lockedBacking is a thread-safe backing store whose pages carry a
// deterministic fill pattern, so torn fetches are detectable.
type lockedBacking struct {
	mu    sync.Mutex
	pages map[page.ID]byte
}

func (b *lockedBacking) fetch(id page.ID, buf page.Buf) (bool, error) {
	b.mu.Lock()
	v := b.pages[id]
	b.mu.Unlock()
	buf.Init(id, page.TypeHeap)
	for i := page.HeaderSize; i < len(buf); i++ {
		buf[i] = v
	}
	return false, nil
}

func (b *lockedBacking) evict(v Victim) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v.Dirty {
		b.pages[v.ID] = v.Data[page.HeaderSize]
	}
	return nil
}

// TestConcurrentGetUnpin hammers a small pool from many goroutines so that
// concurrent misses, evictions and re-fetches of the same pages overlap.
// Run under -race it verifies the frame latching: no goroutine may observe
// a half-loaded frame (the fill pattern would be torn) and pin accounting
// must stay balanced.  Sixteen goroutines each hold one pin on eight
// frames, so an allocation waits for a pin to be released, as it does in
// the engine under page locks; failing fast on over-subscription is
// TestPinWaitBlocksInsteadOfFailing's subject, not this test's.
func TestConcurrentGetUnpin(t *testing.T) {
	const (
		pages      = 64
		capacity   = 8
		goroutines = 16
		iterations = 400
	)
	b := &lockedBacking{pages: make(map[page.ID]byte)}
	for i := 1; i <= pages; i++ {
		b.pages[page.ID(i)] = byte(i)
	}
	p, err := New(capacity, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPinWait(true)

	hammerGetUnpin(t, p, pages, goroutines, iterations)

	// All pins released: every resident page must be evictable again.
	for _, id := range p.ResidentIDs() {
		if _, err := p.Get(id); err != nil {
			t.Fatalf("Get(%d) after drain: %v", id, err)
		}
		if err := p.Unpin(id); err != nil {
			t.Fatalf("Unpin(%d) after drain: %v", id, err)
		}
	}
	s := p.Stats()
	if s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("workload did not exercise misses/evictions: %+v", s)
	}
}

// TestShardedConcurrentGetUnpin hammers the pool with pin waiting off, the
// fail-fast configuration, where TestConcurrentGetUnpin waits for pins.
// Sixteen goroutines each hold at most one pin on sixteen frames, so a
// goroutine needing a frame always finds one its peers leave unpinned and
// no Get may fail with ErrAllPinned.  (The name dates from the sharded
// pool, whose shards this test drove; the pool is now one LRU.)
func TestShardedConcurrentGetUnpin(t *testing.T) {
	const (
		pages      = 64
		capacity   = 16
		goroutines = 16
		iterations = 300
	)
	b := &lockedBacking{pages: make(map[page.ID]byte)}
	for i := 1; i <= pages; i++ {
		b.pages[page.ID(i)] = byte(i)
	}
	p, err := New(capacity, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	hammerGetUnpin(t, p, pages, goroutines, iterations)
	if n := p.Len(); n != capacity {
		t.Fatalf("%d pages resident after the workload, want %d", n, capacity)
	}
	s := p.Stats()
	if s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("workload did not exercise misses/evictions: %+v", s)
	}
}

// hammerGetUnpin runs goroutines workers that each Get, check and Unpin
// iterations pages out of 1..pages, staggered so that misses, evictions
// and re-fetches of the same pages overlap.  It fails t if a worker sees a
// torn fill pattern, a frame holding another page, or an error.
func hammerGetUnpin(t *testing.T, p *Pool, pages, goroutines, iterations int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				id := page.ID((g*7+i)%pages + 1)
				buf, err := p.Get(id)
				if err != nil {
					t.Errorf("Get(%d): %v", id, err)
					return
				}
				want := buf[page.HeaderSize]
				for j := page.HeaderSize; j < len(buf); j += 512 {
					if buf[j] != want {
						t.Errorf("page %d: torn read at offset %d: %d != %d", id, j, buf[j], want)
						break
					}
				}
				if buf.ID() != id {
					t.Errorf("Get(%d) returned page %d", id, buf.ID())
				}
				if err := p.Unpin(id); err != nil {
					t.Errorf("Unpin(%d): %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentSameMissLoadsOnce checks that concurrent Gets for the same
// absent page coalesce on one fetch rather than racing the frame.
func TestConcurrentSameMissLoadsOnce(t *testing.T) {
	var mu sync.Mutex
	fetches := 0
	fetch := func(id page.ID, buf page.Buf) (bool, error) {
		mu.Lock()
		fetches++
		mu.Unlock()
		buf.Init(id, page.TypeHeap)
		return false, nil
	}
	p, err := New(4, fetch, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Get(7); err != nil {
				t.Error(err)
				return
			}
			p.Unpin(7)
		}()
	}
	wg.Wait()
	if fetches != 1 {
		t.Fatalf("page 7 fetched %d times, want 1", fetches)
	}
}

// TestLatchWaitsCounted: a Get of a page whose fetch is in flight is
// counted as one latch wait, and is then a hit.
func TestLatchWaitsCounted(t *testing.T) {
	fetching, gate := make(chan struct{}), make(chan struct{})
	p, err := New(4, func(id page.ID, buf page.Buf) (bool, error) {
		close(fetching)
		<-gate
		buf.Init(id, page.TypeHeap)
		return false, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	get := func() {
		_, err := p.Get(7)
		done <- err
	}
	go get()
	<-fetching
	go get()
	for p.Stats().LatchWaits == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.LatchWaits != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v, want one miss, one latch wait and one hit", s)
	}
}

// TestPinWaitBlocksInsteadOfFailing: with SetPinWait(true) an all-pinned
// pool parks the allocating goroutine until a pin is released, instead of
// returning ErrAllPinned.
func TestPinWaitBlocksInsteadOfFailing(t *testing.T) {
	b := &lockedBacking{pages: map[page.ID]byte{}}
	p, err := New(2, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPinWait(true)

	if _, err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(2); err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		_, err := p.Get(3)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Get on an all-pinned pool returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	if err := p.Unpin(2); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Get after unpin: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pin-waiter not woken by Unpin")
	}
	if s := p.Stats(); s.PinWaits == 0 {
		t.Fatalf("PinWaits = 0, want waits recorded: %+v", s)
	}
	// Fail-fast behaviour is untouched by default (see
	// TestPinPreventsEviction) and restorable at runtime.
	p.SetPinWait(false)
	if _, err := p.Get(4); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("got %v, want ErrAllPinned after SetPinWait(false)", err)
	}
}

// TestPinWaitManyWaiters: several goroutines wait on a saturated pool and
// all complete as pins drain.
func TestPinWaitManyWaiters(t *testing.T) {
	b := &lockedBacking{pages: map[page.ID]byte{}}
	p, err := New(4, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPinWait(true)
	for id := page.ID(1); id <= 4; id++ {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id page.ID) {
			defer wg.Done()
			if _, err := p.Get(id); err != nil {
				errs <- err
				return
			}
			errs <- p.Unpin(id)
		}(page.ID(10 + i))
	}
	// Release the saturating pins one by one; every waiter must finish.
	for id := page.ID(1); id <= 4; id++ {
		time.Sleep(time.Millisecond)
		if err := p.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsCoherent is the stats-tearing regression test: Stats races a
// storm of Gets, and every snapshot must be internally consistent —
// non-negative counters and a hit rate inside [0, 1].  A snapshot reading
// the counters without the pool lock could observe a Get half-applied
// (Misses ticked, Hits not) and produce rates outside the range; under
// -race it would also be a straight data race.
func TestStatsCoherent(t *testing.T) {
	b := &lockedBacking{pages: make(map[page.ID]byte)}
	for i := 1; i <= 32; i++ {
		b.pages[page.ID(i)] = byte(i)
	}
	p, err := New(8, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := page.ID((g*11+i)%32 + 1)
				if _, err := p.Get(id); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				p.Unpin(id)
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := p.Stats()
		if s.Hits < 0 || s.Misses < 0 || s.Evictions < 0 {
			t.Fatalf("negative counters: %+v", s)
		}
		if hr := s.HitRate(); hr < 0 || hr > 1 {
			t.Fatalf("hit rate %v outside [0, 1] (stats %+v)", hr, s)
		}
	}
	close(stop)
	wg.Wait()
}

// TestBusyLatchFlags is the busy-visibility regression test for
// Flags: while a fetch is in flight the frame exists but its dirty flag is
// undecided (a fetch served by a write-back flash cache sets it only when
// the I/O returns).  Flags must wait for the latch and report the settled
// flags; the old frame-map-only answer reported the page clean.
func TestBusyLatchFlags(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	fetch := func(id page.ID, buf page.Buf) (bool, error) {
		started <- struct{}{}
		<-gate // the "device" holds the read until the test releases it
		buf.Init(id, page.TypeHeap)
		return true, nil // flash cache held a newer-than-disk copy
	}
	p, err := New(2, fetch, nil)
	if err != nil {
		t.Fatal(err)
	}
	go p.Get(7)
	<-started

	type answer struct {
		dirty, fdirty bool
		err           error
	}
	got := make(chan answer, 1)
	go func() {
		d, fd, err := p.Flags(7)
		got <- answer{d, fd, err}
	}()
	select {
	case a := <-got:
		t.Fatalf("Flags answered %+v while the fetch was still in flight", a)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatal(a.err)
		}
		if !a.dirty || a.fdirty {
			t.Fatalf("flags after flash fetch: dirty=%v fdirty=%v, want true/false", a.dirty, a.fdirty)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flags never answered after the fetch completed")
	}
}

// TestBusyLatchContains: a page mid-eviction (write-back still in
// flight on a gated device) must not be reported by Contains until the
// write-back lands — the caller would otherwise conclude the page is gone
// from DRAM and its backing copy current while the only current copy is
// still in the air.
func TestBusyLatchContains(t *testing.T) {
	gate := make(chan struct{})
	evicting := make(chan struct{}, 1)
	var landed atomic.Bool
	fetch := func(id page.ID, buf page.Buf) (bool, error) {
		buf.Init(id, page.TypeHeap)
		return false, nil
	}
	evict := func(v Victim) error {
		evicting <- struct{}{}
		<-gate
		landed.Store(true)
		return nil
	}
	p, err := New(1, fetch, evict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	p.MarkDirty(1)
	p.Unpin(1)
	// Loading page 2 evicts page 1; the eviction blocks on the gate.
	go p.Get(2)
	<-evicting

	got := make(chan bool, 1)
	go func() { got <- p.Contains(1) }()
	select {
	case ok := <-got:
		t.Fatalf("Contains(1) answered %v while the write-back was in flight", ok)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case ok := <-got:
		if !landed.Load() {
			t.Fatal("Contains answered before the write-back landed")
		}
		if ok {
			t.Fatal("evicted page still reported resident")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Contains never answered after the write-back landed")
	}
}

// TestPoolClosePinWaitWakeup is the shutdown-hang regression test: a Get
// parked on the all-pinned condition is woken by Close and fails with
// ErrClosed instead of hanging forever (no Unpin or DropAll ever arrives
// on a close path that flushes and stops).
func TestPoolClosePinWaitWakeup(t *testing.T) {
	b := &lockedBacking{pages: map[page.ID]byte{}}
	p, err := New(2, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPinWait(true)
	if _, err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(2); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := p.Get(3)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Get on an all-pinned pool returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	p.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("woken pin-waiter got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pin-waiter not woken by Close")
	}
	// New work on a closed pool fails fast.
	if _, err := p.Get(4); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: got %v, want ErrClosed", err)
	}
	if _, err := p.Put(5, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: got %v, want ErrClosed", err)
	}
	// Close is idempotent.
	p.Close()
}
