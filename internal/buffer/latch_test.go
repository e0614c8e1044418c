package buffer

import (
	"errors"
	"sync"
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
