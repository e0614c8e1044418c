// Package iosched implements the staged background I/O pipeline of the
// flash cache: a bounded staging ring that DRAM buffer evictions are
// dropped into, a group writer that drains the ring in batches and turns
// them into large sequential flash group writes, and a pool of destager
// workers that write cold dirty pages back to the database on disk.
//
// The package provides mechanism only.  Policy — what a "group write" or a
// "destage" actually does — is injected as callbacks by internal/face,
// which composes the pieces around an mvFIFO cache manager.  The pipeline
// preserves the paper's Group Replacement / Group Second Chance semantics
// because the mvFIFO core still makes every replacement decision; the
// pipeline only moves the I/O off the foot of the evicting transaction.
//
// Backpressure: Put blocks when the staging ring is full, so a foreground
// that outruns the flash device degrades gracefully to the synchronous
// behaviour instead of queueing unboundedly.
package iosched

import (
	"errors"
	"sync"
	"time"

	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/page"
)

// ErrStopped is returned by pipeline operations after Close or Abort.
var ErrStopped = errors.New("iosched: pipeline is stopped")

// Item is one page staged for background I/O.  Data is owned by the
// pipeline: producers must hand in a private copy.
type Item struct {
	ID     page.ID
	Data   page.Buf
	Dirty  bool // newer than the disk copy
	FDirty bool // newer than the flash copy
	Ref    bool // referenced while staged (counts as a cache hit)
	// Seq is a producer-assigned sequence number that disambiguates
	// successive versions of the same page.
	Seq uint64
}

// Ring is the bounded staging ring between the DRAM buffer and the group
// writer.  Put blocks when the ring is full; TakeBatch blocks when it is
// empty.  A newer version of a page already staged (and not yet taken)
// replaces the staged copy in place instead of occupying a second slot.
type Ring struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	buf   []Item
	head  int // next item to take
	count int
	// inFlight counts batches handed out by TakeBatch whose processing
	// has not been acknowledged with Ack yet.  It is set atomically with
	// the removal of the items, so Idle cannot observe an "empty" ring
	// whose contents are merely in the consumer's hands.
	inFlight int

	// pending maps page ids to their slot in buf for in-place coalescing.
	pending map[page.ID]int

	stopped bool
	err     error

	staged    int64
	stalls    int64
	stallTime time.Duration
	maxDepth  int64
	coalesced int64
}

// NewRing creates a staging ring holding up to depth pages.
func NewRing(depth int) *Ring {
	if depth < 1 {
		depth = 1
	}
	r := &Ring{
		buf:     make([]Item, depth),
		pending: make(map[page.ID]int),
	}
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpty = sync.NewCond(&r.mu)
	return r
}

// Depth returns the ring capacity.
func (r *Ring) Depth() int { return len(r.buf) }

// Len returns the current occupancy.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Put stages an item, blocking while the ring is full.  When a version of
// the same page is already staged and not yet taken, the staged copy is
// superseded in place: the newer image replaces it and the dirty flags are
// merged, which coalesces repeated evictions of a hot page into one flash
// write.  The superseded version, if any, is returned so the caller can
// keep its statistics consistent (the old version never reaches the
// cache core).
func (r *Ring) Put(it Item) (superseded Item, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.stopped {
			return Item{}, false, r.failErr()
		}
		if slot, ok := r.pending[it.ID]; ok {
			old := &r.buf[slot]
			prev := *old
			it.Dirty = it.Dirty || old.Dirty
			it.FDirty = it.FDirty || old.FDirty
			it.Ref = it.Ref || old.Ref
			*old = it
			r.staged++
			r.coalesced++
			return prev, true, nil
		}
		if r.count < len(r.buf) {
			break
		}
		// Full: wait, then re-run the checks — a concurrent Put of the
		// same page may have staged it while we slept, in which case the
		// copies must coalesce rather than occupy two slots.
		r.stalls++
		start := time.Now()
		for r.count == len(r.buf) && !r.stopped {
			r.notFull.Wait()
		}
		r.stallTime += time.Since(start)
	}
	slot := (r.head + r.count) % len(r.buf)
	r.buf[slot] = it
	r.pending[it.ID] = slot
	r.count++
	r.staged++
	if int64(r.count) > r.maxDepth {
		r.maxDepth = int64(r.count)
	}
	r.notEmpty.Signal()
	return Item{}, false, nil
}

// TakeBatch removes up to max items in FIFO order, blocking until at least
// one is available.  It returns ErrStopped (or the sticky failure error)
// once the ring is stopped and drained.
func (r *Ring) TakeBatch(max int) ([]Item, error) {
	if max < 1 {
		max = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.count == 0 && !r.stopped {
		r.notEmpty.Wait()
	}
	if r.count == 0 {
		return nil, r.failErr()
	}
	n := r.count
	if n > max {
		n = max
	}
	out := make([]Item, n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[r.head]
		r.buf[r.head] = Item{}
		delete(r.pending, out[i].ID)
		r.head = (r.head + 1) % len(r.buf)
	}
	r.count -= n
	r.inFlight++
	r.notFull.Broadcast()
	return out, nil
}

// Ack acknowledges that a batch returned by TakeBatch has been fully
// processed.
func (r *Ring) Ack() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inFlight--
}

// Idle reports whether the ring is empty with no unacknowledged batch in
// flight.
func (r *Ring) Idle() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count == 0 && r.inFlight == 0
}

// Stop wakes every waiter and makes subsequent Put/TakeBatch fail.  Items
// already staged remain takeable until the ring drains (TakeBatch keeps
// returning them); with discard set they are dropped immediately, which
// models the loss of volatile state at a crash.
func (r *Ring) Stop(discard bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	if err != nil && r.err == nil {
		r.err = err
	}
	if discard {
		for i := range r.buf {
			r.buf[i] = Item{}
		}
		r.head, r.count = 0, 0
		r.pending = make(map[page.ID]int)
	}
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
}

func (r *Ring) failErr() error {
	if r.err != nil {
		return r.err
	}
	return ErrStopped
}

// fillStats copies the ring counters into s.
func (r *Ring) fillStats(s *metrics.PipelineStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Staged = r.staged
	s.Stalls = r.stalls
	s.StallTime = r.stallTime
	s.MaxDepth = r.maxDepth
	s.Coalesced = r.coalesced
}
