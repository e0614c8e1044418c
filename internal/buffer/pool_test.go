package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/page"
)

// testBacking simulates a backing store keyed by page id.
type testBacking struct {
	pages    map[page.ID]byte
	fetches  int
	evicted  []Victim
	fetchErr error
	evictErr error
}

func newTestBacking() *testBacking {
	return &testBacking{pages: make(map[page.ID]byte)}
}

func (b *testBacking) fetch(id page.ID, buf page.Buf) (bool, error) {
	if b.fetchErr != nil {
		return false, b.fetchErr
	}
	b.fetches++
	buf.Init(id, page.TypeHeap)
	buf[page.HeaderSize] = b.pages[id]
	return false, nil
}

func (b *testBacking) evict(v Victim) error {
	if b.evictErr != nil {
		return b.evictErr
	}
	cp := v
	cp.Data = v.Data.Clone()
	b.evicted = append(b.evicted, cp)
	if v.Dirty {
		b.pages[v.ID] = v.Data[page.HeaderSize]
	}
	return nil
}

func newPool(t *testing.T, capacity int, b *testBacking) *Pool {
	t.Helper()
	p, err := New(capacity, b.fetch, b.evict)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewBadCapacity(t *testing.T) {
	if _, err := New(0, nil, nil); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("got %v, want ErrBadCapacity", err)
	}
}

func TestGetHitAndMiss(t *testing.T) {
	b := newTestBacking()
	b.pages[7] = 42
	p := newPool(t, 4, b)

	buf, err := p.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if buf[page.HeaderSize] != 42 {
		t.Fatalf("fetched content = %d, want 42", buf[page.HeaderSize])
	}
	if err := p.Unpin(7); err != nil {
		t.Fatal(err)
	}
	// Second access is a hit; no further fetch.
	if _, err := p.Get(7); err != nil {
		t.Fatal(err)
	}
	p.Unpin(7)
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || b.fetches != 1 {
		t.Fatalf("stats = %+v, fetches = %d", s, b.fetches)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 3, b)
	for id := page.ID(1); id <= 3; id++ {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
	}
	// Touch page 1 so page 2 becomes LRU.
	p.Get(1)
	p.Unpin(1)
	// Insert page 4: page 2 must be evicted.
	if _, err := p.Get(4); err != nil {
		t.Fatal(err)
	}
	p.Unpin(4)
	if len(b.evicted) != 1 || b.evicted[0].ID != 2 {
		t.Fatalf("evicted %v, want page 2", b.evicted)
	}
	if p.Contains(2) {
		t.Fatal("page 2 still resident after eviction")
	}
}

func TestDirtyFlagsOnEviction(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 2, b)
	buf, _ := p.Get(1)
	buf[page.HeaderSize] = 99
	p.MarkDirty(1)
	p.Unpin(1)
	p.Get(2)
	p.Unpin(2)
	// Evict page 1 by loading a third page.
	p.Get(3)
	p.Unpin(3)
	if len(b.evicted) != 1 {
		t.Fatalf("evicted %d pages, want 1", len(b.evicted))
	}
	v := b.evicted[0]
	if v.ID != 1 || !v.Dirty || !v.FDirty {
		t.Fatalf("victim = %+v, want dirty page 1", v)
	}
	if b.pages[1] != 99 {
		t.Fatal("dirty content not propagated to backing store")
	}
	s := p.Stats()
	if s.DirtyEvictions != 1 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 2, b)
	p.Get(1) // stays pinned
	p.Get(2) // stays pinned
	if _, err := p.Get(3); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("got %v, want ErrAllPinned", err)
	}
	p.Unpin(2)
	if _, err := p.Get(3); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	if p.Contains(2) {
		t.Fatal("page 2 should have been evicted")
	}
	if !p.Contains(1) {
		t.Fatal("pinned page 1 must remain resident")
	}
}

func TestUnpinErrors(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 2, b)
	if err := p.Unpin(9); !errors.Is(err, ErrNotResident) {
		t.Fatalf("got %v, want ErrNotResident", err)
	}
	p.Get(1)
	p.Unpin(1)
	if err := p.Unpin(1); err == nil {
		t.Fatal("double unpin should fail")
	}
	if err := p.MarkDirty(9); !errors.Is(err, ErrNotResident) {
		t.Fatalf("MarkDirty: got %v, want ErrNotResident", err)
	}
	if _, _, err := p.Flags(9); !errors.Is(err, ErrNotResident) {
		t.Fatalf("Flags: got %v, want ErrNotResident", err)
	}
}

func TestFetchFromFlashSetsDirtyOnly(t *testing.T) {
	// A fetch that reports dirty=true (flash cache holding a newer-than-
	// disk copy) must leave dirty set and fdirty clear, per Algorithm 1.
	fetch := func(id page.ID, buf page.Buf) (bool, error) {
		buf.Init(id, page.TypeHeap)
		return true, nil
	}
	p, err := New(2, fetch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(5); err != nil {
		t.Fatal(err)
	}
	dirty, fdirty, err := p.Flags(5)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty || fdirty {
		t.Fatalf("flags after flash fetch: dirty=%v fdirty=%v, want true/false", dirty, fdirty)
	}
}

func TestPutNewPage(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 2, b)
	buf, err := p.Put(10, func(buf page.Buf) { buf.Init(10, page.TypeHeap) })
	if err != nil {
		t.Fatal(err)
	}
	if buf.ID() != 10 {
		t.Fatalf("Put page id = %d", buf.ID())
	}
	dirty, fdirty, _ := p.Flags(10)
	if !dirty || !fdirty {
		t.Fatal("new page must be dirty and fdirty")
	}
	if b.fetches != 0 {
		t.Fatal("Put must not call fetch")
	}
	p.Unpin(10)
	// Put on a resident page re-pins it.
	if _, err := p.Put(10, nil); err != nil {
		t.Fatal(err)
	}
	p.Unpin(10)
}

func TestFetchErrorPropagates(t *testing.T) {
	b := newTestBacking()
	b.fetchErr = fmt.Errorf("boom")
	p := newPool(t, 2, b)
	if _, err := p.Get(1); err == nil {
		t.Fatal("expected fetch error")
	}
	if p.Len() != 0 {
		t.Fatal("failed fetch left a frame behind")
	}
}

func TestEvictErrorPropagates(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 1, b)
	p.Get(1)
	p.Unpin(1)
	b.evictErr = fmt.Errorf("evict boom")
	if _, err := p.Get(2); err == nil {
		t.Fatal("expected eviction error")
	}
}

func TestFlushDirty(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 4, b)
	for id := page.ID(1); id <= 3; id++ {
		buf, _ := p.Get(id)
		buf[page.HeaderSize] = byte(id)
		p.MarkDirty(id)
		p.Unpin(id)
	}
	var flushed []page.ID
	err := p.FlushDirty(func(v Victim) error {
		flushed = append(flushed, v.ID)
		return nil
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(flushed, func(i, j int) bool { return flushed[i] < flushed[j] })
	if len(flushed) != 3 {
		t.Fatalf("flushed %v, want 3 pages", flushed)
	}
	// With syncedToDisk=false the dirty flag survives, fdirty is cleared.
	dirty, fdirty, _ := p.Flags(1)
	if !dirty || fdirty {
		t.Fatalf("flags after flash flush: dirty=%v fdirty=%v", dirty, fdirty)
	}
	// A second flush with syncedToDisk=true clears dirty too.
	if err := p.FlushDirty(func(v Victim) error { return nil }, true); err != nil {
		t.Fatal(err)
	}
	dirty, fdirty, _ = p.Flags(1)
	if dirty || fdirty {
		t.Fatalf("flags after disk flush: dirty=%v fdirty=%v", dirty, fdirty)
	}
	// Nothing dirty now: callback must not run.
	if err := p.FlushDirty(func(v Victim) error { t.Fatal("unexpected flush"); return nil }, true); err != nil {
		t.Fatal(err)
	}
	// Flush errors propagate.
	p.MarkDirty(1)
	if err := p.FlushDirty(func(v Victim) error { return fmt.Errorf("nope") }, true); err == nil {
		t.Fatal("expected flush error")
	}
}

// pullAll pulls up to n victims and keeps them past the pull.
func pullAll(p *Pool, n int) (out []Victim) {
	p.EvictBatch(n, func(v []Victim) { out = v })
	return out
}

func TestEvictBatch(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 5, b)
	for id := page.ID(1); id <= 5; id++ {
		buf, _ := p.Get(id)
		buf[page.HeaderSize] = byte(id)
		if id%2 == 0 {
			p.MarkDirty(id)
		}
		p.Unpin(id)
	}
	// Keep page 1 pinned: it must not be pulled.
	p.Get(1)
	victims := pullAll(p, 3)
	if len(victims) != 3 {
		t.Fatalf("EvictBatch returned %d victims, want 3", len(victims))
	}
	for _, v := range victims {
		if v.ID == 1 {
			t.Fatal("pinned page pulled by EvictBatch")
		}
		if (v.ID%2 == 0) != v.Dirty {
			t.Fatalf("victim %d dirty flag = %v", v.ID, v.Dirty)
		}
		if v.Data[page.HeaderSize] != byte(v.ID) {
			t.Fatalf("victim %d content mismatch", v.ID)
		}
	}
	if len(b.evicted) != 0 {
		t.Fatal("EvictBatch must not invoke the eviction callback")
	}
	if p.Len() != 2 {
		t.Fatalf("resident pages = %d, want 2", p.Len())
	}
	// LRU order: the oldest unpinned pages (2, 3, 4) are pulled first.
	ids := []page.ID{victims[0].ID, victims[1].ID, victims[2].ID}
	if ids[0] != 2 || ids[1] != 3 || ids[2] != 4 {
		t.Fatalf("EvictBatch order = %v, want [2 3 4]", ids)
	}
}

func TestDropAll(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 4, b)
	for id := page.ID(1); id <= 4; id++ {
		p.Get(id)
		p.MarkDirty(id)
		p.Unpin(id)
	}
	p.DropAll()
	if p.Len() != 0 {
		t.Fatalf("Len after DropAll = %d", p.Len())
	}
	if len(b.evicted) != 0 {
		t.Fatal("DropAll must not write anything")
	}
	if len(p.ResidentIDs()) != 0 {
		t.Fatal("ResidentIDs non-empty after DropAll")
	}
}

func TestCapacityAccessor(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 7, b)
	if p.Capacity() != 7 {
		t.Fatalf("Capacity = %d", p.Capacity())
	}
}

// TestEvictionLendsAndReusesTheImage: the image of a frame evicted through
// the callback is lent for the call and then carries the incoming page, so
// a miss that evicts allocates no page; what the callback saw is gone
// afterwards, which is why retainers must copy.
func TestEvictionLendsAndReusesTheImage(t *testing.T) {
	b := newTestBacking()
	var lent page.Buf
	p, err := New(2, b.fetch, func(v Victim) error {
		lent = v.Data
		if v.Data.ID() != v.ID {
			t.Errorf("victim %d carries page %d", v.ID, v.Data.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := page.ID(1); id <= 2; id++ {
		p.Get(id)
		p.Unpin(id)
	}
	got, err := p.Get(3) // evicts page 1
	if err != nil {
		t.Fatal(err)
	}
	if lent == nil || &got[0] != &lent[0] {
		t.Fatal("the incoming page did not take over the victim's image")
	}
	if got.ID() != 3 {
		t.Fatalf("frame holds page %d, want 3", got.ID())
	}
	if p.Images().Len() != 0 {
		t.Fatalf("%d images parked with every frame in use", p.Images().Len())
	}
}

// TestEvictBatchHandsOverAndTakesBack: pulled victims own their images; the
// puller returns them through Images and the next misses reuse them.
func TestEvictBatchHandsOverAndTakesBack(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 4, b)
	frames := map[page.ID]*byte{}
	for id := page.ID(1); id <= 4; id++ {
		buf, _ := p.Get(id)
		frames[id] = &buf[0]
		p.Unpin(id)
	}
	victims := pullAll(p, 2)
	if len(victims) != 2 {
		t.Fatalf("pulled %d victims, want 2", len(victims))
	}
	for _, v := range victims {
		if &v.Data[0] != frames[v.ID] {
			t.Fatalf("victim %d was copied, not handed over", v.ID)
		}
		p.Images().Put(v.Data)
	}
	if p.Images().Len() != 2 {
		t.Fatalf("%d images parked, want 2", p.Images().Len())
	}
	for id := page.ID(5); id <= 6; id++ {
		buf, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if buf.ID() != id || buf[page.HeaderSize] != 0 {
			t.Fatalf("page %d came up as page %d", id, buf.ID())
		}
		p.Unpin(id)
	}
	if p.Images().Len() != 0 {
		t.Fatalf("%d images parked after two misses, want 0", p.Images().Len())
	}
	// The crash path drops the parked images with the frames.
	for _, v := range pullAll(p, 2) {
		p.Images().Put(v.Data)
	}
	p.DropAll()
	if p.Images().Len() != 0 {
		t.Fatalf("DropAll left %d images parked", p.Images().Len())
	}
}

// TestPutStartsFromZeroes: a brand-new page must not show what the recycled
// image held before.
func TestPutStartsFromZeroes(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 1, b)
	buf, _ := p.Get(1)
	for i := range buf {
		buf[i] = 0xEE
	}
	p.Unpin(1)
	fresh, err := p.Put(2, nil) // evicts page 1, reuses its image
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range fresh {
		if c != 0 {
			t.Fatalf("byte %d of a new page is %#x", i, c)
		}
	}
}

// TestFlushDirtyThroughOneImage: every resident page reaches the callback
// through the same scratch image with its own content, and a page pulled
// out of the pool while the flush is under way — the callback's own doing,
// as when a stage-in makes room by pulling DRAM victims — is still flushed,
// with the content it had, while the puller's copy stays the puller's.
func TestFlushDirtyThroughOneImage(t *testing.T) {
	b := newTestBacking()
	p := newPool(t, 4, b)
	for id := page.ID(1); id <= 4; id++ {
		buf, _ := p.Get(id)
		buf[page.HeaderSize] = byte(10 * id)
		p.MarkDirty(id)
		p.Unpin(id)
	}
	var (
		images = map[*byte]bool{}
		pulled []Victim
		seen   []page.ID
	)
	err := p.FlushDirty(func(v Victim) error {
		seen = append(seen, v.ID)
		if v.Data.ID() != v.ID || v.Data[page.HeaderSize] != byte(10*v.ID) || !v.Dirty || !v.FDirty {
			t.Errorf("flush of page %d saw page %d, content %d, dirty=%v fdirty=%v",
				v.ID, v.Data.ID(), v.Data[page.HeaderSize], v.Dirty, v.FDirty)
		}
		if v.ID == 1 {
			// Pages 1 (just flushed) and 2 (still to come) leave the pool.
			pulled = pullAll(p, 2)
		} else if v.ID != 2 {
			images[&v.Data[0]] = true
		}
		return nil
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[1 2 3 4]" {
		t.Fatalf("flushed %v, want every page once, in page-id order", seen)
	}
	if len(images) != 1 {
		t.Fatalf("resident pages went through %d images, want one scratch image", len(images))
	}
	if len(pulled) != 2 || pulled[1].ID != 2 || pulled[1].Data[page.HeaderSize] != 20 {
		t.Fatalf("pulled %+v", pulled)
	}
	// A failing callback leaves no frame marked: later pulls hand over the
	// frames' own images again.
	frames := map[page.ID]*byte{}
	for id := page.ID(3); id <= 4; id++ {
		buf, _ := p.Get(id)
		frames[id] = &buf[0]
		p.MarkDirty(id)
		p.Unpin(id)
	}
	if err := p.FlushDirty(func(Victim) error { return errors.New("nope") }, false); err == nil {
		t.Fatal("expected the flush error")
	}
	for _, v := range pullAll(p, 4) {
		if &v.Data[0] != frames[v.ID] {
			t.Fatalf("the frame of page %d stayed marked after a failed flush", v.ID)
		}
	}
}

// TestEvictBatchLatchesUntilTaken: while pulled pages change hands a Get for
// one of them waits, and then sees what the taker made of the page, instead
// of missing into the older copy in the backing store.
func TestEvictBatchLatchesUntilTaken(t *testing.T) {
	b := newTestBacking()
	var mu sync.Mutex
	newer := map[page.ID]byte{} // where take puts the pulled pages
	p, err := New(2, func(id page.ID, buf page.Buf) (bool, error) {
		mu.Lock()
		v, ok := newer[id]
		mu.Unlock()
		if !ok {
			return b.fetch(id, buf)
		}
		buf.Init(id, page.TypeHeap)
		buf[page.HeaderSize] = v
		return true, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := p.Get(1)
	buf[page.HeaderSize] = 42 // the backing store still says 0
	p.MarkDirty(1)
	p.Unpin(1)

	got := make(chan byte)
	p.EvictBatch(1, func(victims []Victim) {
		go func() {
			buf, err := p.Get(1)
			if err != nil {
				t.Error(err)
				got <- 0
				return
			}
			got <- buf[page.HeaderSize]
		}()
		select {
		case v := <-got:
			t.Errorf("Get returned %d while the page was changing hands", v)
		case <-time.After(20 * time.Millisecond):
		}
		mu.Lock()
		newer[1] = victims[0].Data[page.HeaderSize]
		mu.Unlock()
	})
	if v := <-got; v != 42 {
		t.Fatalf("Get after the pull saw %d, want the pulled page's 42", v)
	}
}

// lruModel is the LRU order as a plain list of ids, most recently used
// first, with a pin count each.
type lruModel struct {
	order []page.ID
	pins  map[page.ID]int
}

func (m *lruModel) touch(id page.ID) {
	if i := slices.Index(m.order, id); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	m.order = slices.Insert(m.order, 0, id)
	m.pins[id]++
}

// victims removes and returns up to n unpinned ids, least recently used
// first.
func (m *lruModel) victims(n int) []page.ID {
	var out []page.ID
	for i := len(m.order) - 1; i >= 0 && len(out) < n; i-- {
		if id := m.order[i]; m.pins[id] == 0 {
			out = append(out, id)
			m.order = slices.Delete(m.order, i, i+1)
		}
	}
	return out
}

// TestLRUOrderMatchesList: random sequences of hits, misses, new pages,
// unpins and batch evictions pick the victims a plain LRU list picks — the
// least recently used unpinned frame for a miss, the unpinned frames from
// the tail for a batch.
func TestLRUOrderMatchesList(t *testing.T) {
	const capacity = 16
	rng := rand.New(rand.NewSource(33))
	for run := range 50 {
		b := newTestBacking()
		p := newPool(t, capacity, b)
		m := &lruModel{pins: map[page.ID]int{}}
		var pinned []page.ID // one entry per pin
		var want []page.ID
		for step := range 400 {
			switch op := rng.Intn(10); {
			case op < 5 && len(pinned) < capacity-1:
				id := page.ID(1 + rng.Intn(3*capacity))
				if !slices.Contains(m.order, id) && len(m.order) == capacity {
					want = append(want, m.victims(1)...)
				}
				var err error
				if op == 0 {
					_, err = p.Put(id, nil)
				} else {
					_, err = p.Get(id)
				}
				if err != nil {
					t.Fatal(err)
				}
				m.touch(id)
				pinned = append(pinned, id)
			case op < 9 && len(pinned) > 0:
				i := rng.Intn(len(pinned))
				id := pinned[i]
				pinned = slices.Delete(pinned, i, i+1)
				if err := p.Unpin(id); err != nil {
					t.Fatal(err)
				}
				m.pins[id]--
			case op == 9:
				n := 1 + rng.Intn(4)
				wantBatch := m.victims(n)
				var got []page.ID
				for _, v := range pullAll(p, n) {
					got = append(got, v.ID)
				}
				if !slices.Equal(got, wantBatch) {
					t.Fatalf("run %d step %d: a batch of %d pulled %v, want %v", run, step, n, got, wantBatch)
				}
			}
			var got []page.ID
			for _, v := range b.evicted {
				got = append(got, v.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("run %d step %d: misses evicted %v, want %v", run, step, got, want)
			}
		}
	}
}
