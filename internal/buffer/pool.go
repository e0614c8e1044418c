// Package buffer implements the DRAM buffer pool.
//
// The pool mirrors the behaviour the FaCE paper assumes of PostgreSQL's
// buffer manager: LRU replacement, pin counts, and per-frame dirty flags.
// Following Section 3.3 of the paper, each frame carries two flags:
//
//   - dirty:  the DRAM copy is newer than the disk copy.
//   - fdirty: the DRAM copy is newer than the flash-cache copy ("flash
//     dirty").
//
// The pool itself knows nothing about flash or disk.  It is wired to the
// rest of the system through two callbacks: a FetchFunc that loads a page
// on a miss (the engine consults the flash cache first, then disk) and an
// EvictFunc that receives pages leaving DRAM (the engine stages them into
// the flash cache or writes them to disk).
//
// The pool is one LRU ring over every frame under one mutex, the single
// replacement order of PostgreSQL's shared buffers that FaCE extends.  A
// page whose fetch or eviction I/O is in flight is latched in a busy map
// so that the callbacks run without the mutex held.
package buffer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/page"
)

// Errors returned by the pool.
var (
	ErrAllPinned   = errors.New("buffer: all frames are pinned")
	ErrNotResident = errors.New("buffer: page is not resident")
	ErrBadCapacity = errors.New("buffer: capacity must be at least 1")
	ErrClosed      = errors.New("buffer: pool is closed")
)

// Victim describes a page leaving the DRAM buffer.
type Victim struct {
	ID page.ID
	// Data is the page image.  In an eviction or FlushDirty callback it is
	// lent: valid until the callback returns, after which the pool reuses
	// it for another page, so the callback must neither keep nor write it.
	// From EvictBatch it is handed over: the frame is gone and the caller
	// owns the image; giving it back through Images().Put when done keeps
	// the pool from allocating a replacement.
	Data page.Buf
	// Dirty reports whether the page is newer than its disk copy.
	Dirty bool
	// FDirty reports whether the page is newer than its flash-cache copy.
	FDirty bool
}

// FetchFunc loads the page with the given id into buf on a DRAM miss.  It
// reports whether the loaded copy is newer than the disk copy (true when it
// was served from a write-back flash cache holding a dirty version).  buf
// is a recycled image holding some earlier page: the callback must write
// all of it.
type FetchFunc func(id page.ID, buf page.Buf) (dirty bool, err error)

// EvictFunc consumes a page evicted from the DRAM buffer.
type EvictFunc func(v Victim) error

// Stats reports buffer pool activity.
type Stats struct {
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64
	// PinWaits counts frame allocations that had to wait for a pinned
	// frame to be released (only under SetPinWait; otherwise an
	// all-pinned pool fails fast with ErrAllPinned).
	PinWaits int64
	// LatchWaits counts Gets that waited for a page's latch: another
	// goroutine's fetch or eviction of the page was in flight.
	LatchWaits int64
}

// HitRate returns the fraction of Get calls served from DRAM.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type frame struct {
	id     page.ID
	data   page.Buf
	dirty  bool
	fdirty bool
	pins   int
	// prev and next link the frame into the pool's LRU ring.
	prev, next *frame
	// flushing marks a frame a running FlushDirty has yet to reach.  If the
	// frame leaves the pool before its turn, its image stays behind for the
	// flush, which still owes the page to its callback: EvictBatch hands
	// over a copy and an eviction does not recycle the original.
	flushing bool
}

// Pool is an LRU buffer pool of fixed capacity.  It is safe for concurrent
// use: frames are latched while their fetch or eviction I/O is in flight,
// so concurrent Get calls for the same page wait for a single load instead
// of racing it, and a page being evicted cannot be re-fetched from the
// backing store until its eviction (and therefore its write-back) has
// completed.
type Pool struct {
	capacity int
	fetch    FetchFunc
	evict    EvictFunc

	// images holds the page images of frames that left the pool, for the
	// frames that enter it: a miss that evicts reuses the victim's image.
	// It never parks more than capacity images, since the pool never made
	// more than that, and is a leaf lock.
	images *page.FreeList

	// closed fails new Gets and wakes pin-waiters with ErrClosed.
	closed atomic.Bool

	mu     sync.Mutex
	frames map[page.ID]*frame
	// lru is the sentinel of the ring of resident frames, most recently
	// used first: lru.next is the front, lru.prev the back.
	lru frame
	// busy latches pages with in-flight fetch or eviction I/O: the channel
	// is closed when the I/O completes and the page may be (re)examined.
	busy  map[page.ID]chan struct{}
	stats Stats
	// pinWait makes an all-pinned pool wait on unpinned instead of failing
	// with ErrAllPinned.  unpinned is broadcast, under mu, whenever a frame
	// may have become free: an Unpin to zero, a frame leaving the pool, a
	// DropAll and Close.
	pinWait  bool
	unpinned sync.Cond
}

// New creates a pool holding up to capacity pages.
func New(capacity int, fetch FetchFunc, evict EvictFunc) (*Pool, error) {
	if capacity < 1 {
		return nil, ErrBadCapacity
	}
	p := &Pool{
		capacity: capacity,
		fetch:    fetch,
		evict:    evict,
		images:   page.NewFreeList(capacity),
		frames:   make(map[page.ID]*frame, capacity),
		busy:     make(map[page.ID]chan struct{}),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	p.unpinned.L = &p.mu
	return p, nil
}

// SetPinWait selects how an all-pinned pool treats a frame allocation:
// waiting for a pin to be released (true) or failing fast with
// ErrAllPinned (false, the default).  The engine enables waiting: many
// concurrent transactions legitimately pin pages at once but every pin is
// short-held — never across a lock wait, a commit, or a blocking closure —
// so the wait is bounded.
func (p *Pool) SetPinWait(wait bool) {
	p.mu.Lock()
	p.pinWait = wait
	p.mu.Unlock()
}

// Close marks the pool closed: subsequent Gets fail with ErrClosed and
// every goroutine parked on a pin-wait is woken and fails the same way.
// Resident frames stay readable through Flags/Contains for diagnostics;
// callers flush dirty pages with FlushDirty before closing.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	p.unpinned.Broadcast()
	p.mu.Unlock()
}

// Images returns the free list the pool's frames take their page images
// from.  Whoever was handed images by EvictBatch puts them back here once
// done with them (page.Buf states when that is).
func (p *Pool) Images() *page.FreeList { return p.images }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the number of resident pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Stats returns a snapshot of the pool statistics.  The counters are read
// under the pool lock, so Hits+Misses can never tear against a concurrent
// Get.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Contains reports whether the page is resident without affecting LRU
// order or statistics.  It is busy-aware: while the page's fetch or
// eviction I/O is in flight it waits for the latch, so it never reports a
// half-loaded frame as resident or a page whose eviction write-back is
// still in the air as gone.
func (p *Pool) Contains(id page.ID) bool {
	p.mu.Lock()
	p.waitBusyLocked(id)
	_, ok := p.frames[id]
	p.mu.Unlock()
	return ok
}

// waitBusyLocked blocks until no fetch or eviction I/O is in flight for
// the page.  The caller holds p.mu on entry and on return.
func (p *Pool) waitBusyLocked(id page.ID) {
	for {
		ch, ok := p.busy[id]
		if !ok {
			return
		}
		p.mu.Unlock()
		<-ch
		p.mu.Lock()
	}
}

// Get pins the page with the given id and returns its frame buffer.  The
// buffer aliases pool memory and remains valid until Unpin.  On a miss the
// page is loaded through the fetch callback, evicting the least recently
// used unpinned page if the pool is full.
//
// The fetch and evict callbacks are invoked without holding any pool lock,
// so they may call back into the pool (Group Second Chance pulls extra
// victims with EvictBatch from inside the eviction path).  While a fetch or
// eviction is in flight the page stays latched: concurrent Gets for it wait
// on the latch rather than observing a half-loaded frame or re-reading a
// page whose write-back has not yet reached the backing store.
func (p *Pool) Get(id page.ID) (page.Buf, error) {
	buf, _, err := p.get(id, false)
	return buf, err
}

// GetTimed is Get that also reports when it left its fast path, to wait
// for the page's latch or to miss (the eviction that made room and the
// fetch): the time from then until it returned is what the pool cost beyond
// a hit.  A hit on a page nobody latched reads no clock and reports the
// zero time.
func (p *Pool) GetTimed(id page.ID) (buf page.Buf, slow time.Time, err error) {
	return p.get(id, true)
}

func (p *Pool) get(id page.ID, timed bool) (buf page.Buf, slow time.Time, err error) {
	if p.closed.Load() {
		return nil, slow, ErrClosed
	}
	p.mu.Lock()
	for waited := false; ; {
		if ch, ok := p.busy[id]; ok {
			if !waited {
				waited = true
				p.stats.LatchWaits++
				if timed {
					slow = time.Now()
				}
			}
			p.mu.Unlock()
			<-ch
			p.mu.Lock()
			continue
		}
		f, ok := p.frames[id]
		if !ok {
			break
		}
		f.pins++
		p.moveToFront(f)
		p.stats.Hits++
		p.mu.Unlock()
		return f.data, slow, nil
	}
	if timed && slow.IsZero() {
		slow = time.Now()
	}
	p.stats.Misses++
	ch := make(chan struct{})
	p.busy[id] = ch
	f, err := p.allocateFrame(id)
	if err != nil {
		delete(p.busy, id)
		close(ch)
		p.mu.Unlock()
		return nil, slow, err
	}
	p.mu.Unlock()

	dirty, err := p.fetch(id, f.data)
	p.mu.Lock()
	delete(p.busy, id)
	close(ch)
	if err != nil {
		// The id was latched throughout, so nobody else ever saw the frame.
		p.removeLocked(f)
		p.images.Put(f.data)
		p.mu.Unlock()
		return nil, slow, fmt.Errorf("buffer: fetching page %d: %w", id, err)
	}
	f.dirty = dirty
	f.fdirty = false
	p.mu.Unlock()
	return f.data, slow, nil
}

// Put inserts a brand-new page image into the pool without consulting the
// fetch callback (used when allocating fresh pages).  The page is pinned.
func (p *Pool) Put(id page.ID, init func(buf page.Buf)) (page.Buf, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	p.mu.Lock()
	for {
		if ch, ok := p.busy[id]; ok {
			p.mu.Unlock()
			<-ch
			p.mu.Lock()
			continue
		}
		f, ok := p.frames[id]
		if !ok {
			break
		}
		f.pins++
		p.moveToFront(f)
		if init != nil {
			init(f.data)
		}
		f.dirty = true
		f.fdirty = true
		p.mu.Unlock()
		return f.data, nil
	}
	// Latch the id across allocateFrame: the lock is released around
	// eviction callbacks, and a concurrent Get or Put for the same id must
	// not allocate a second frame in that window.
	ch := make(chan struct{})
	p.busy[id] = ch
	f, err := p.allocateFrame(id)
	delete(p.busy, id)
	close(ch)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// A brand-new page starts from zeroes, not from whatever page the
	// recycled image held before.
	clear(f.data)
	if init != nil {
		init(f.data)
	}
	f.dirty = true
	f.fdirty = true
	p.mu.Unlock()
	return f.data, nil
}

// allocateFrame finds or creates a free frame for id, evicting if
// necessary.  The caller holds p.mu on entry and on return; the lock is
// released around the eviction callback, during which the victim page is
// latched in p.busy so a concurrent Get cannot re-fetch it from the
// backing store before its write-back lands, and while waiting for a pin
// to be released.  The returned frame is pinned.
func (p *Pool) allocateFrame(id page.ID) (*frame, error) {
	waited := false
	for len(p.frames) >= p.capacity {
		if victim := p.pickVictimLocked(); victim != nil {
			if err := p.evictFrameLocked(victim); err != nil {
				return nil, err
			}
			continue
		}
		if p.closed.Load() {
			return nil, ErrClosed
		}
		if !p.pinWait {
			return nil, ErrAllPinned
		}
		// Pins are short-held; wait for a release and look again.  Count
		// the allocation as waiting once, not once per wakeup.
		if !waited {
			waited = true
			p.stats.PinWaits++
		}
		p.unpinned.Wait()
	}
	f := &frame{id: id, data: p.images.Get(), pins: 1}
	p.pushFront(f)
	p.frames[id] = f
	return f, nil
}

// evictFrameLocked removes the victim from the pool and runs the eviction
// callback with the pool lock released and the page busy-latched.  The
// victim was unpinned and is now unreachable, so its image is the pool's
// alone: it is lent to the callback and goes to the free list when the
// callback has returned, for the frame the caller is about to allocate.
// The caller holds p.mu on entry and on return.
func (p *Pool) evictFrameLocked(victim *frame) error {
	p.stats.Evictions++
	if victim.dirty {
		p.stats.DirtyEvictions++
	}
	p.removeLocked(victim)
	if p.evict == nil {
		if !victim.flushing {
			p.images.Put(victim.data)
		}
		return nil
	}
	ch := make(chan struct{})
	p.busy[victim.id] = ch
	v := Victim{ID: victim.id, Data: victim.data, Dirty: victim.dirty, FDirty: victim.fdirty}
	p.mu.Unlock()
	err := p.evict(v)
	p.mu.Lock()
	delete(p.busy, victim.id)
	close(ch)
	if !victim.flushing {
		p.images.Put(victim.data)
	}
	if err != nil {
		return fmt.Errorf("buffer: evicting page %d: %w", victim.id, err)
	}
	return nil
}

// pickVictimLocked returns the least recently used unpinned frame, or nil.
func (p *Pool) pickVictimLocked() *frame {
	for f := p.lru.prev; f != &p.lru; f = f.prev {
		if f.pins == 0 {
			return f
		}
	}
	return nil
}

// pushFront links f in as the most recently used frame.
func (p *Pool) pushFront(f *frame) {
	f.prev, f.next = &p.lru, p.lru.next
	f.next.prev = f
	p.lru.next = f
}

// unlink takes f out of the LRU ring.
func (p *Pool) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// moveToFront makes f the most recently used frame.
func (p *Pool) moveToFront(f *frame) {
	if p.lru.next != f {
		p.unlink(f)
		p.pushFront(f)
	}
}

func (p *Pool) removeLocked(f *frame) {
	p.unlink(f)
	delete(p.frames, f.id)
	// A removed frame frees capacity: wake pin-waiters.
	p.unpinned.Broadcast()
}

// MarkDirty flags the page as updated: both dirty and fdirty are set, as in
// Algorithm 1 of the paper ("on update of page p in the DRAM buffer").
func (p *Pool) MarkDirty(id page.ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("%w: page %d", ErrNotResident, id)
	}
	f.dirty = true
	f.fdirty = true
	return nil
}

// Flags returns the dirty and fdirty flags of a resident page.  Like
// Contains it is busy-aware: while the page's fetch is in flight the flags
// are not yet decided (a fetch served by a write-back flash cache sets
// dirty afterwards), so Flags waits for the latch instead of reporting the
// frame's provisional clean state.
func (p *Pool) Flags(id page.ID) (dirty, fdirty bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waitBusyLocked(id)
	f, ok := p.frames[id]
	if !ok {
		return false, false, fmt.Errorf("%w: page %d", ErrNotResident, id)
	}
	return f.dirty, f.fdirty, nil
}

// Unpin releases one pin on the page.
func (p *Pool) Unpin(id page.ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("%w: page %d", ErrNotResident, id)
	}
	if f.pins == 0 {
		return fmt.Errorf("buffer: page %d is not pinned", id)
	}
	f.pins--
	if f.pins == 0 {
		p.unpinned.Broadcast()
	}
	return nil
}

// FlushDirty passes every dirty resident page to fn (typically the
// checkpoint path).  Pages remain resident.  The fdirty flag is always
// cleared; the dirty flag is cleared only when syncedToDisk is true (i.e.
// the flush went all the way to the disk copy rather than into a
// write-back flash cache).
//
// fn is invoked without holding any pool lock, for the same reason as the
// eviction callback in Get.  Pages are flushed in page-id order, so that
// two runs of one workload stage them into the flash cache in the same
// order and stay identical from there on.
//
// Every resident page goes through one scratch image, copied from its frame
// just before fn sees it and lent to fn like an eviction victim's, so a
// checkpoint's transient is one image and not the dirty set.  A page that
// left the pool after the dirty set was collected — fn may itself pull
// victims from the LRU tail — is still passed to fn, as it always was:
// its frame was marked and kept its image (see frame.flushing).
func (p *Pool) FlushDirty(fn func(v Victim) error, syncedToDisk bool) error {
	var pending []*frame
	p.mu.Lock()
	for _, f := range p.frames {
		if f.dirty || f.fdirty {
			f.flushing = true
			pending = append(pending, f)
		}
	}
	p.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].id < pending[j].id })

	scratch := p.images.Get()
	defer p.images.Put(scratch)
	for i, f := range pending {
		v, gone := p.flushTurn(f, scratch)
		err := fn(v)
		if gone {
			p.images.Put(f.data)
		}
		if err != nil {
			// Nobody is coming for the rest: unmark them.
			for _, f := range pending[i+1:] {
				if _, gone := p.flushTurn(f, nil); gone {
					p.images.Put(f.data)
				}
			}
			return fmt.Errorf("buffer: flushing page %d: %w", f.id, err)
		}
		p.mu.Lock()
		if f, ok := p.frames[f.id]; ok {
			f.fdirty = false
			if syncedToDisk {
				f.dirty = false
			}
		}
		p.mu.Unlock()
	}
	return nil
}

// flushTurn unmarks a frame FlushDirty collected and describes the page
// for the callback: through scratch (when given) while the frame is
// resident, through the frame's own image, now the flush's alone, when the
// frame has left the pool.
func (p *Pool) flushTurn(f *frame, scratch page.Buf) (v Victim, gone bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// An eviction of the page in flight has lent the image to its callback.
	p.waitBusyLocked(f.id)
	f.flushing = false
	v = Victim{ID: f.id, Data: scratch, Dirty: f.dirty, FDirty: f.fdirty}
	if p.frames[f.id] != f {
		v.Data = f.data
		return v, true
	}
	copy(scratch, f.data)
	return v, false
}

// EvictBatch removes up to n unpinned pages from the LRU tail and passes
// them to take WITHOUT invoking the eviction callback.  It implements the
// "pull more pages from the LRU tail of the DRAM buffer" step of the paper's
// Group Second Chance replacement (Section 3.3): the flash cache tops up a
// partially empty write group with additional DRAM victims.
//
// The victims' images are handed over, not copied: their frames are gone,
// so nothing else refers to them (see Victim.Data).  Their pages stay
// busy-latched until take returns, exactly as a page going through the
// eviction callback does: while a page changes hands it is in neither the
// pool nor whatever take puts it into, and a concurrent Get must wait for
// it to arrive rather than miss into an older copy below.  take is not
// called when nothing could be pulled.
func (p *Pool) EvictBatch(n int, take func([]Victim)) {
	var out []Victim
	p.mu.Lock()
	for f := p.lru.prev; f != &p.lru && len(out) < n; {
		prev := f.prev
		if f.pins == 0 {
			p.stats.Evictions++
			if f.dirty {
				p.stats.DirtyEvictions++
			}
			data := f.data
			if f.flushing {
				data = data.Clone()
			}
			out = append(out, Victim{ID: f.id, Data: data, Dirty: f.dirty, FDirty: f.fdirty})
			p.busy[f.id] = make(chan struct{})
			p.removeLocked(f)
		}
		f = prev
	}
	p.mu.Unlock()
	if len(out) == 0 {
		return
	}
	take(out)
	p.mu.Lock()
	for _, v := range out {
		close(p.busy[v.ID])
		delete(p.busy, v.ID)
	}
	p.mu.Unlock()
}

// DropAll discards every resident page, and the free images with them,
// without writing anything.  It simulates the loss of volatile state at a
// crash.
func (p *Pool) DropAll() {
	p.mu.Lock()
	p.frames = make(map[page.ID]*frame, p.capacity)
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	p.unpinned.Broadcast()
	p.mu.Unlock()
	p.images.Drop()
}

// ResidentIDs returns the ids of all resident pages (for tests and
// diagnostics).
func (p *Pool) ResidentIDs() []page.ID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]page.ID, 0, len(p.frames))
	for id := range p.frames {
		out = append(out, id)
	}
	return out
}
