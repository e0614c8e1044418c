package buffer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/page"
)

// TestShardedPoolBasics: capacity splits across shards, pages route by
// hash, and the aggregate statistics equal the per-shard sums.
func TestShardedPoolBasics(t *testing.T) {
	b := newTestBacking()
	p, err := NewSharded(10, 4, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", p.Shards())
	}
	if p.Capacity() != 10 {
		t.Fatalf("Capacity = %d, want 10", p.Capacity())
	}
	total := 0
	for _, s := range p.shards {
		if s.capacity < 2 || s.capacity > 3 {
			t.Fatalf("shard capacity %d, want 2 or 3", s.capacity)
		}
		total += s.capacity
	}
	if total != 10 {
		t.Fatalf("shard capacities sum to %d, want 10", total)
	}

	for id := page.ID(1); id <= 8; id++ {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	// Re-read: every page must be found again (routing is stable).
	for id := page.ID(1); id <= 8; id++ {
		if !p.Contains(id) {
			t.Fatalf("page %d not resident after load", id)
		}
	}
	agg := p.Stats()
	var sum Stats
	for _, ss := range p.ShardStats() {
		sum.Add(ss)
	}
	if agg != sum {
		t.Fatalf("aggregate %+v != per-shard sum %+v", agg, sum)
	}
	if agg.Misses != 8 {
		t.Fatalf("misses = %d, want 8", agg.Misses)
	}
	if got := len(p.ResidentIDs()); got != 8 {
		t.Fatalf("ResidentIDs = %d, want 8", got)
	}
}

// TestShardedClampsToCapacity: more shards than pages clamps so every
// shard holds at least one page.
func TestShardedClampsToCapacity(t *testing.T) {
	b := newTestBacking()
	p, err := NewSharded(3, 16, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 3 {
		t.Fatalf("Shards = %d, want clamp to 3", p.Shards())
	}
	if _, err := NewSharded(0, 4, b.fetch, b.evict); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("got %v, want ErrBadCapacity", err)
	}
}

// TestShardedConcurrentGetUnpin hammers a sharded pool the way the latch
// test hammers the single-shard one: under -race no goroutine may observe
// a torn frame and pin accounting must stay balanced across shards.
func TestShardedConcurrentGetUnpin(t *testing.T) {
	const (
		pages      = 64
		capacity   = 12
		shardCount = 4
		goroutines = 16
		iterations = 300
	)
	b := &lockedBacking{pages: make(map[page.ID]byte)}
	for i := 1; i <= pages; i++ {
		b.pages[page.ID(i)] = byte(i)
	}
	p, err := NewSharded(capacity, shardCount, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
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
						t.Errorf("page %d: torn read at offset %d", id, j)
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
	s := p.Stats()
	if s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("workload did not exercise misses/evictions: %+v", s)
	}
}

// TestShardedAllPinnedBorrowsFromSiblings: ErrAllPinned keeps its
// global-pool meaning under sharding.  A shard whose every frame is
// pinned must borrow capacity by evicting a sibling's unpinned victim
// instead of failing while the rest of the pool sits idle; the error
// fires only when every frame of every shard is pinned.
func TestShardedAllPinnedBorrowsFromSiblings(t *testing.T) {
	b := newTestBacking()
	p, err := NewSharded(4, 4, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	// Find two ids routed to the same (one-frame) shard.
	target := p.shardFor(1)
	second := page.ID(0)
	for id := page.ID(2); id < 200; id++ {
		if p.shardFor(id) == target {
			second = id
			break
		}
	}
	if second == 0 {
		t.Fatal("no second id hashed to the target shard")
	}
	// Pin the shard's only frame, fill one sibling with an unpinned page.
	if _, err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	var sibling page.ID
	for id := page.ID(2); id < 200; id++ {
		if p.shardFor(id) != target {
			sibling = id
			break
		}
	}
	if _, err := p.Get(sibling); err != nil {
		t.Fatal(err)
	}
	p.Unpin(sibling)

	// The target shard is all-pinned, but the pool has headroom: the
	// allocation must succeed past the local split, not fail — and with
	// free capacity elsewhere it must not evict anyone either.
	if _, err := p.Get(second); err != nil {
		t.Fatalf("Get on an all-pinned shard failed despite free siblings: %v", err)
	}
	if !p.Contains(sibling) {
		t.Fatal("sibling evicted although the pool had free capacity")
	}
	if got := p.Len(); got > p.Capacity() {
		t.Fatalf("borrowing exceeded pool capacity: %d resident of %d", got, p.Capacity())
	}
	// While the pool has global headroom, an all-pinned shard allocates
	// past its split without failing; once four frames are resident and
	// pinned, the global semantics apply.
	var pinned []page.ID
	for id := page.ID(200); len(pinned) < 2; id++ {
		if p.shardFor(id) == target {
			if _, err := p.Get(id); err != nil {
				t.Fatalf("Get with global headroom failed: %v", err)
			}
			pinned = append(pinned, id)
		}
	}
	if got := p.Len(); got != p.Capacity() {
		t.Fatalf("resident = %d, want full pool %d", got, p.Capacity())
	}
	var fifth page.ID
	for id := page.ID(400); fifth == 0; id++ {
		if p.shardFor(id) == target {
			fifth = id
		}
	}
	if _, err := p.Get(fifth); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("got %v, want ErrAllPinned with every frame pinned", err)
	}
}

// TestShardedStatsCoherent is the stats-tearing regression test: Stats
// races a storm of Gets, and every snapshot must be internally
// consistent — non-negative counters and a hit rate inside [0, 1].  Before
// the per-shard coherent snapshots, an aggregate reading counters without
// the shard locks could observe a Get half-applied (Misses ticked, Hits
// not) and produce rates outside the range; under -race it was also a
// straight data race.
func TestShardedStatsCoherent(t *testing.T) {
	b := &lockedBacking{pages: make(map[page.ID]byte)}
	for i := 1; i <= 32; i++ {
		b.pages[page.ID(i)] = byte(i)
	}
	p, err := NewSharded(8, 4, b.fetch, b.evict)
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
		for _, ss := range p.ShardStats() {
			if ss.Hits < 0 || ss.Misses < 0 {
				t.Fatalf("negative per-shard counters: %+v", ss)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardBusyLatchFlags is the busy-visibility regression test for
// Flags: while a fetch is in flight the frame exists but its dirty flag is
// undecided (a fetch served by a write-back flash cache sets it only when
// the I/O returns).  Flags must wait for the latch and report the settled
// flags; the old frame-map-only answer reported the page clean.
func TestShardBusyLatchFlags(t *testing.T) {
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

// TestShardBusyLatchContains: a page mid-eviction (write-back still in
// flight on a gated device) must not be reported by Contains until the
// write-back lands — the caller would otherwise conclude the page is gone
// from DRAM and its backing copy current while the only current copy is
// still in the air.
func TestShardBusyLatchContains(t *testing.T) {
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
