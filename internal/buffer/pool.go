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
// To keep many concurrent transactions off one mutex, the pool is split
// into independent shards, each with its own lock, LRU list, busy-latch
// map, pin-wait condition and statistics.  Pages are striped over the
// shards by a hash of their id, so hits on different pages touch different
// locks.  A single-shard pool (New, or NewSharded with shards = 1) behaves
// exactly like the historical global-LRU pool; with more shards each shard
// runs its own LRU over its slice of the capacity.
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

// Add accumulates another snapshot into s (per-shard snapshots sum to the
// pool-wide view).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.DirtyEvictions += o.DirtyEvictions
	s.PinWaits += o.PinWaits
	s.LatchWaits += o.LatchWaits
}

type frame struct {
	id     page.ID
	data   page.Buf
	dirty  bool
	fdirty bool
	pins   int
	// prev and next link the frame into its shard's LRU ring.
	prev, next *frame
	// flushing marks a frame a running FlushDirty has yet to reach.  If the
	// frame leaves the pool before its turn, its image stays behind for the
	// flush, which still owes the page to its callback: EvictBatch hands
	// over a copy and an eviction does not recycle the original.
	flushing bool
}

// shard is one independently locked slice of the pool: its own LRU,
// busy-latch map, pin-wait condition and statistics.
type shard struct {
	pool     *Pool
	mu       sync.Mutex
	capacity int
	frames   map[page.ID]*frame
	// lru is the sentinel of the ring of resident frames, most recently
	// used first: lru.next is the front, lru.prev the back.
	lru frame
	// busy latches pages with in-flight fetch or eviction I/O: the channel
	// is closed when the I/O completes and the page may be (re)examined.
	busy  map[page.ID]chan struct{}
	stats Stats
}

// Pool is an LRU buffer pool of fixed capacity, striped over independent
// shards.  It is safe for concurrent use: frames are latched while their
// fetch or eviction I/O is in flight, so concurrent Get calls for the same
// page wait for a single load instead of racing it, and a page being
// evicted cannot be re-fetched from the backing store until its eviction
// (and therefore its write-back) has completed.
type Pool struct {
	capacity int
	shards   []*shard
	fetch    FetchFunc
	evict    EvictFunc

	// images holds the page images of frames that left the pool, for the
	// frames that enter it: a miss that evicts reuses the victim's image.
	// It never parks more than capacity images, since the pool never made
	// more than that, and is a leaf lock like pinMu.
	images *page.FreeList

	// pinWait makes an all-pinned shard wait on unpinned (signalled by
	// Unpin and frame removal) instead of failing with ErrAllPinned.
	pinWait atomic.Bool
	// closed fails new Gets and wakes pin-waiters with ErrClosed.
	closed atomic.Bool
	// resident tracks the pool-wide frame count so an all-pinned shard
	// can tell global headroom (allocate past the local split) from a
	// genuinely full pool (evict a sibling's victim first).
	resident atomic.Int64

	// Pin-release notification.  A frame allocation that found every
	// frame of every shard pinned waits for ANY pin release — in any
	// shard, since borrowing can satisfy it remotely — so the signal is
	// pool-wide: pinGen counts releases (Unpin to zero, frame removal,
	// close) and pinCond broadcasts them.  pinMu is a leaf lock, taken
	// with or without a shard lock held but never the other way around.
	pinMu   sync.Mutex
	pinGen  uint64
	pinCond *sync.Cond
}

// pinGeneration samples the release counter; a waiter takes it BEFORE
// scanning for victims so a release during the scan re-runs the scan
// instead of being missed.
func (p *Pool) pinGeneration() uint64 {
	p.pinMu.Lock()
	g := p.pinGen
	p.pinMu.Unlock()
	return g
}

// pinReleased records a pin release (or frame removal, or close) and
// wakes every waiter.
func (p *Pool) pinReleased() {
	p.pinMu.Lock()
	p.pinGen++
	p.pinCond.Broadcast()
	p.pinMu.Unlock()
}

// waitPinReleased blocks until a release happened after gen was sampled.
// The caller holds no shard lock.
func (p *Pool) waitPinReleased(gen uint64) {
	p.pinMu.Lock()
	for p.pinGen == gen && !p.closed.Load() {
		p.pinCond.Wait()
	}
	p.pinMu.Unlock()
}

// New creates a pool holding up to capacity pages in a single shard — the
// historical global-LRU behaviour.
func New(capacity int, fetch FetchFunc, evict EvictFunc) (*Pool, error) {
	return NewSharded(capacity, 1, fetch, evict)
}

// NewSharded creates a pool holding up to capacity pages striped over the
// given number of shards.  Shard counts below 1 select 1; a count above
// the capacity is clamped so every shard holds at least one page.
func NewSharded(capacity, shards int, fetch FetchFunc, evict EvictFunc) (*Pool, error) {
	if capacity < 1 {
		return nil, ErrBadCapacity
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	p := &Pool{
		capacity: capacity,
		shards:   make([]*shard, shards),
		fetch:    fetch,
		evict:    evict,
		images:   page.NewFreeList(capacity),
	}
	p.pinCond = sync.NewCond(&p.pinMu)
	// Split the capacity as evenly as possible; the first capacity%shards
	// shards hold one extra page.
	base, rem := capacity/shards, capacity%shards
	for i := range p.shards {
		c := base
		if i < rem {
			c++
		}
		s := &shard{
			pool:     p,
			capacity: c,
			frames:   make(map[page.ID]*frame, c),
			busy:     make(map[page.ID]chan struct{}),
		}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		p.shards[i] = s
	}
	return p, nil
}

// shardFor returns the shard holding the given page id.  The Fibonacci
// multiplier scatters the mostly-sequential page ids of a fresh database
// across the shards.
func (p *Pool) shardFor(id page.ID) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return p.shards[h%uint64(len(p.shards))]
}

// SetPinWait selects how an all-pinned shard treats a frame allocation:
// waiting for a pin to be released (true) or failing fast with
// ErrAllPinned (false, the default).  The engine enables waiting: many
// concurrent transactions legitimately pin pages at once but every pin is
// short-held — never across a lock wait, a commit, or a blocking closure —
// so the wait is bounded.
func (p *Pool) SetPinWait(wait bool) { p.pinWait.Store(wait) }

// Close marks the pool closed: subsequent Gets fail with ErrClosed and
// every goroutine parked on a pin-wait is woken and fails the same way.
// Resident frames stay readable through Flags/Contains for diagnostics;
// callers flush dirty pages with FlushDirty before closing.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.pinReleased()
}

// Images returns the free list the pool's frames take their page images
// from.  Whoever was handed images by EvictBatch puts them back here once
// done with them (page.Buf states when that is).
func (p *Pool) Images() *page.FreeList { return p.images }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Shards returns the number of shards the capacity is striped over.
func (p *Pool) Shards() int { return len(p.shards) }

// Len returns the number of resident pages.
func (p *Pool) Len() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the pool statistics: the sum of one coherent
// snapshot per shard.  Each shard's counters are read under its lock, so
// Hits+Misses can never tear against a concurrent Get on the same shard;
// across shards the snapshot is only as old as the first shard read.
func (p *Pool) Stats() Stats {
	var out Stats
	for _, s := range p.shards {
		s.mu.Lock()
		out.Add(s.stats)
		s.mu.Unlock()
	}
	return out
}

// Contains reports whether the page is resident without affecting LRU
// order or statistics.  It is busy-aware: while the page's fetch or
// eviction I/O is in flight it waits for the latch, so it never reports a
// half-loaded frame as resident or a page whose eviction write-back is
// still in the air as gone.
func (p *Pool) Contains(id page.ID) bool {
	s := p.shardFor(id)
	s.mu.Lock()
	s.waitBusyLocked(id)
	_, ok := s.frames[id]
	s.mu.Unlock()
	return ok
}

// waitBusyLocked blocks until no fetch or eviction I/O is in flight for
// the page.  The caller holds s.mu on entry and on return.
func (s *shard) waitBusyLocked(id page.ID) {
	for {
		ch, ok := s.busy[id]
		if !ok {
			return
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
}

// Get pins the page with the given id and returns its frame buffer.  The
// buffer aliases pool memory and remains valid until Unpin.  On a miss the
// page is loaded through the fetch callback, evicting the least recently
// used unpinned page of the shard if it is full.
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
	s := p.shardFor(id)
	s.mu.Lock()
	for waited := false; ; {
		if ch, ok := s.busy[id]; ok {
			if !waited {
				waited = true
				s.stats.LatchWaits++
				if timed {
					slow = time.Now()
				}
			}
			s.mu.Unlock()
			<-ch
			s.mu.Lock()
			continue
		}
		f, ok := s.frames[id]
		if !ok {
			break
		}
		f.pins++
		s.moveToFront(f)
		s.stats.Hits++
		s.mu.Unlock()
		return f.data, slow, nil
	}
	if timed && slow.IsZero() {
		slow = time.Now()
	}
	s.stats.Misses++
	ch := make(chan struct{})
	s.busy[id] = ch
	f, err := s.allocateFrame(id)
	if err != nil {
		delete(s.busy, id)
		close(ch)
		s.mu.Unlock()
		return nil, slow, err
	}
	s.mu.Unlock()

	dirty, err := p.fetch(id, f.data)
	s.mu.Lock()
	delete(s.busy, id)
	close(ch)
	if err != nil {
		// The id was latched throughout, so nobody else ever saw the frame.
		s.removeLocked(f)
		p.images.Put(f.data)
		s.mu.Unlock()
		return nil, slow, fmt.Errorf("buffer: fetching page %d: %w", id, err)
	}
	f.dirty = dirty
	f.fdirty = false
	s.mu.Unlock()
	return f.data, slow, nil
}

// Put inserts a brand-new page image into the pool without consulting the
// fetch callback (used when allocating fresh pages).  The page is pinned.
func (p *Pool) Put(id page.ID, init func(buf page.Buf)) (page.Buf, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	s := p.shardFor(id)
	s.mu.Lock()
	for {
		if ch, ok := s.busy[id]; ok {
			s.mu.Unlock()
			<-ch
			s.mu.Lock()
			continue
		}
		f, ok := s.frames[id]
		if !ok {
			break
		}
		f.pins++
		s.moveToFront(f)
		if init != nil {
			init(f.data)
		}
		f.dirty = true
		f.fdirty = true
		s.mu.Unlock()
		return f.data, nil
	}
	// Latch the id across allocateFrame: the lock is released around
	// eviction callbacks, and a concurrent Get or Put for the same id must
	// not allocate a second frame in that window.
	ch := make(chan struct{})
	s.busy[id] = ch
	f, err := s.allocateFrame(id)
	delete(s.busy, id)
	close(ch)
	if err != nil {
		s.mu.Unlock()
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
	s.mu.Unlock()
	return f.data, nil
}

// allocateFrame finds or creates a free frame for id, evicting if
// necessary.  The caller holds s.mu on entry and on return; the lock is
// released around the eviction callback, during which the victim page is
// latched in s.busy so a concurrent Get cannot re-fetch it from the
// backing store before its write-back lands.  The returned frame is
// pinned.
func (s *shard) allocateFrame(id page.ID) (*frame, error) {
	p := s.pool
	waited := false
	reserved := false
	for len(s.frames) >= s.capacity {
		if victim := s.pickVictimLocked(); victim != nil {
			if err := s.evictFrameLocked(victim); err != nil {
				return nil, err
			}
			continue
		}
		if p.closed.Load() {
			return nil, ErrClosed
		}
		// Every local frame is pinned, but the rest of the pool may have
		// room.  Sample the release generation BEFORE scanning, so a pin
		// released mid-scan re-runs the scan instead of being missed.
		gen := p.pinGeneration()
		// Reserve global headroom atomically (a plain load-then-allocate
		// would let concurrent borrowers overshoot the capacity), and
		// allocate past the local split on success.
		if p.resident.Add(1) <= int64(p.capacity) {
			reserved = true
			break
		}
		p.resident.Add(-1)
		// No headroom: fund the borrow by evicting a sibling's victim.
		s.mu.Unlock()
		ok, err := p.evictElsewhere(s)
		s.mu.Lock()
		if err != nil {
			return nil, err
		}
		if ok {
			break
		}
		// Every frame of every shard is pinned — ErrAllPinned keeps its
		// global-pool meaning rather than becoming reachable per-shard.
		if !p.pinWait.Load() {
			return nil, ErrAllPinned
		}
		// Pins are short-held; wait for any release (in any shard — a
		// remote one frees borrowable room) and look again.  Count the
		// allocation as waiting once, not once per wakeup.
		if !waited {
			waited = true
			s.stats.PinWaits++
		}
		s.mu.Unlock()
		p.waitPinReleased(gen)
		s.mu.Lock()
	}
	f := &frame{id: id, data: p.images.Get(), pins: 1}
	s.pushFront(f)
	s.frames[id] = f
	if !reserved {
		p.resident.Add(1)
	}
	return f, nil
}

// evictFrameLocked removes the victim from the shard and runs the
// eviction callback with the shard lock released and the page
// busy-latched.  The victim was unpinned and is now unreachable, so its
// image is the shard's alone: it is lent to the callback and goes to the
// free list when the callback has returned, for the frame the caller is
// about to allocate.  The caller holds s.mu on entry and on return.
func (s *shard) evictFrameLocked(victim *frame) error {
	s.stats.Evictions++
	if victim.dirty {
		s.stats.DirtyEvictions++
	}
	s.removeLocked(victim)
	if s.pool.evict == nil {
		if !victim.flushing {
			s.pool.images.Put(victim.data)
		}
		return nil
	}
	ch := make(chan struct{})
	s.busy[victim.id] = ch
	v := Victim{ID: victim.id, Data: victim.data, Dirty: victim.dirty, FDirty: victim.fdirty}
	s.mu.Unlock()
	err := s.pool.evict(v)
	s.mu.Lock()
	delete(s.busy, victim.id)
	close(ch)
	if !victim.flushing {
		s.pool.images.Put(victim.data)
	}
	if err != nil {
		return fmt.Errorf("buffer: evicting page %d: %w", victim.id, err)
	}
	return nil
}

// evictElsewhere frees one unpinned frame from any shard other than
// exclude, reporting whether one was found.  The caller holds no shard
// lock (at most one shard lock is ever held at a time).
func (p *Pool) evictElsewhere(exclude *shard) (bool, error) {
	for _, s := range p.shards {
		if s == exclude {
			continue
		}
		s.mu.Lock()
		victim := s.pickVictimLocked()
		if victim == nil {
			s.mu.Unlock()
			continue
		}
		err := s.evictFrameLocked(victim)
		s.mu.Unlock()
		if err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// pickVictimLocked returns the least recently used unpinned frame, or nil.
func (s *shard) pickVictimLocked() *frame {
	for f := s.lru.prev; f != &s.lru; f = f.prev {
		if f.pins == 0 {
			return f
		}
	}
	return nil
}

// pushFront links f in as the most recently used frame.
func (s *shard) pushFront(f *frame) {
	f.prev, f.next = &s.lru, s.lru.next
	f.next.prev = f
	s.lru.next = f
}

// unlink takes f out of the LRU ring.
func (s *shard) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// moveToFront makes f the most recently used frame.
func (s *shard) moveToFront(f *frame) {
	if s.lru.next != f {
		s.unlink(f)
		s.pushFront(f)
	}
}

func (s *shard) removeLocked(f *frame) {
	s.unlink(f)
	delete(s.frames, f.id)
	s.pool.resident.Add(-1)
	// A removed frame frees capacity: wake pin-waiters.
	s.pool.pinReleased()
}

// MarkDirty flags the page as updated: both dirty and fdirty are set, as in
// Algorithm 1 of the paper ("on update of page p in the DRAM buffer").
func (p *Pool) MarkDirty(id page.ID) error {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
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
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitBusyLocked(id)
	f, ok := s.frames[id]
	if !ok {
		return false, false, fmt.Errorf("%w: page %d", ErrNotResident, id)
	}
	return f.dirty, f.fdirty, nil
}

// Unpin releases one pin on the page.
func (p *Pool) Unpin(id page.ID) error {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		return fmt.Errorf("%w: page %d", ErrNotResident, id)
	}
	if f.pins == 0 {
		return fmt.Errorf("buffer: page %d is not pinned", id)
	}
	f.pins--
	if f.pins == 0 {
		p.pinReleased()
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
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty || f.fdirty {
				f.flushing = true
				pending = append(pending, f)
			}
		}
		s.mu.Unlock()
	}
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
		s := p.shardFor(f.id)
		s.mu.Lock()
		if f, ok := s.frames[f.id]; ok {
			f.fdirty = false
			if syncedToDisk {
				f.dirty = false
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// flushTurn unmarks a frame FlushDirty collected and describes the page
// for the callback: through scratch (when given) while the frame is
// resident, through the frame's own image, now the flush's alone, when the
// frame has left the pool.
func (p *Pool) flushTurn(f *frame, scratch page.Buf) (v Victim, gone bool) {
	s := p.shardFor(f.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	// An eviction of the page in flight has lent the image to its callback.
	s.waitBusyLocked(f.id)
	f.flushing = false
	v = Victim{ID: f.id, Data: scratch, Dirty: f.dirty, FDirty: f.fdirty}
	if s.frames[f.id] != f {
		v.Data = f.data
		return v, true
	}
	copy(scratch, f.data)
	return v, false
}

// EvictBatch removes up to n unpinned pages from the LRU tails and passes
// them to take WITHOUT invoking the eviction callback.  It implements the
// "pull more pages from the LRU tail of the DRAM buffer" step of the paper's
// Group Second Chance replacement (Section 3.3): the flash cache tops up a
// partially empty write group with additional DRAM victims.  With several
// shards the pull visits the shard tails round-robin, one victim per shard
// per round, approximating the global LRU order.
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
	if len(p.shards) == 1 {
		out = p.shards[0].evictTail(n)
	} else {
		for took := true; took && len(out) < n; {
			took = false
			for _, s := range p.shards {
				if len(out) >= n {
					break
				}
				got := s.evictTail(1)
				if len(got) > 0 {
					out = append(out, got...)
					took = true
				}
			}
		}
	}
	if len(out) == 0 {
		return
	}
	take(out)
	for _, v := range out {
		s := p.shardFor(v.ID)
		s.mu.Lock()
		close(s.busy[v.ID])
		delete(s.busy, v.ID)
		s.mu.Unlock()
	}
}

// evictTail removes up to n unpinned pages from this shard's LRU tail and
// leaves each busy-latched for EvictBatch to release.
func (s *shard) evictTail(n int) []Victim {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Victim
	for f := s.lru.prev; f != &s.lru && len(out) < n; {
		prev := f.prev
		if f.pins == 0 {
			s.stats.Evictions++
			if f.dirty {
				s.stats.DirtyEvictions++
			}
			data := f.data
			if f.flushing {
				data = data.Clone()
			}
			out = append(out, Victim{ID: f.id, Data: data, Dirty: f.dirty, FDirty: f.fdirty})
			s.busy[f.id] = make(chan struct{})
			s.removeLocked(f)
		}
		f = prev
	}
	return out
}

// DropAll discards every resident page, and the free images with them,
// without writing anything.  It simulates the loss of volatile state at a
// crash.
func (p *Pool) DropAll() {
	for _, s := range p.shards {
		s.mu.Lock()
		p.resident.Add(-int64(len(s.frames)))
		s.frames = make(map[page.ID]*frame, s.capacity)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		s.mu.Unlock()
	}
	p.images.Drop()
	p.pinReleased()
}

// ResidentIDs returns the ids of all resident pages (for tests and
// diagnostics).
func (p *Pool) ResidentIDs() []page.ID {
	var out []page.ID
	for _, s := range p.shards {
		s.mu.Lock()
		for id := range s.frames {
			out = append(out, id)
		}
		s.mu.Unlock()
	}
	return out
}
