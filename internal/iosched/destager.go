package iosched

import (
	"sync"

	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/page"
)

// DestageWriteFunc writes one dirty page back to the database on disk.  It
// is called from destager worker goroutines; the underlying device must be
// safe for concurrent use (the striped data array is).
type DestageWriteFunc func(id page.ID, data page.Buf) error

// destageReq is one dirty page evicted from the flash cache queue on its
// way to disk.
type destageReq struct {
	pos  uint64 // absolute mvFIFO queue position the page occupied
	id   page.ID
	lsn  page.LSN
	data page.Buf
	// skip marks a request superseded by a newer version of the same page
	// queued behind it; the worker releases it without writing.
	skip bool
}

// Destager drains cold dirty pages from the flash cache to disk with a
// pool of workers.  Until a page's disk write lands it remains visible
// through Lookup, so a cache miss can never fall through to a stale disk
// copy.  The destager also tracks the lowest queue position with an
// un-landed write: the flash cache must neither reuse such a position's
// frame slot nor persist a front pointer beyond it, which is what keeps
// the metadata directory crash-consistent under asynchronous destaging.
type Destager struct {
	write DestageWriteFunc

	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	landed   *sync.Cond

	queue []*destageReq // FIFO, ascending pos except superseded tombstones
	// pending maps queue positions to their request, for the watermark and
	// the slot-reuse barrier.
	pending map[uint64]*destageReq
	// newest maps page ids to the most recent pending request, for Lookup
	// and for superseding stale queued versions.
	newest map[page.ID]*destageReq
	// writing marks pages with an in-flight disk write.  A worker that
	// dequeues another version of the same page waits for the in-flight
	// write to land first, so parallel workers process versions of one
	// page strictly in queue order and the disk copy can never regress.
	writing map[page.ID]bool

	depth   int
	workers int
	stopped bool
	err     error
	wg      sync.WaitGroup

	destages      int64
	destageWrites int64
	maxDepth      int64
	reuseWaits    int64
	hits          int64
}

// NewDestager starts workers goroutines draining a queue of up to depth
// pages.
func NewDestager(depth, workers int, write DestageWriteFunc) *Destager {
	if depth < 1 {
		depth = 1
	}
	if workers < 1 {
		workers = 1
	}
	d := &Destager{
		write:   write,
		pending: make(map[uint64]*destageReq),
		newest:  make(map[page.ID]*destageReq),
		writing: make(map[page.ID]bool),
		depth:   depth,
		workers: workers,
	}
	d.notFull = sync.NewCond(&d.mu)
	d.notEmpty = sync.NewCond(&d.mu)
	d.landed = sync.NewCond(&d.mu)
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.run()
	}
	return d
}

// Enqueue hands a dirty page to the destager, blocking while the queue is
// full.  data must be a private copy.  A pending request for the same page
// with an older LSN is superseded in place: its disk write is skipped, so
// out-of-order completion by parallel workers can never regress the disk
// copy.
func (d *Destager) Enqueue(pos uint64, id page.ID, data page.Buf) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.queue) >= d.depth && !d.stopped {
		d.notFull.Wait()
	}
	if d.stopped {
		return d.failErr()
	}
	req := &destageReq{pos: pos, id: id, lsn: data.LSN(), data: data}
	if old, ok := d.newest[id]; ok && !old.skip && old.lsn <= req.lsn {
		old.skip = true
	}
	d.queue = append(d.queue, req)
	d.pending[pos] = req
	d.newest[id] = req
	d.destages++
	if n := int64(len(d.queue)); n > d.maxDepth {
		d.maxDepth = n
	}
	d.notEmpty.Signal()
	return nil
}

func (d *Destager) run() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.stopped {
			d.notEmpty.Wait()
		}
		if len(d.queue) == 0 {
			d.mu.Unlock()
			return
		}
		req := d.queue[0]
		d.queue = d.queue[1:]
		// An older version of the same page may still be mid-write on
		// another worker; wait for it so versions land in queue order.
		// The in-flight worker clears the mark unconditionally, so this
		// cannot deadlock even across a stop.
		for d.writing[req.id] {
			d.landed.Wait()
		}
		d.writing[req.id] = true
		skip := req.skip
		d.mu.Unlock()

		var err error
		if !skip {
			err = d.write(req.id, req.data)
		}

		d.mu.Lock()
		delete(d.writing, req.id)
		if !skip && err == nil {
			d.destageWrites++
		}
		if err != nil && d.err == nil {
			d.err = err
			d.stopped = true
			d.notEmpty.Broadcast()
		}
		delete(d.pending, req.pos)
		if cur, ok := d.newest[req.id]; ok && cur == req {
			delete(d.newest, req.id)
		}
		d.notFull.Broadcast()
		d.landed.Broadcast()
		d.mu.Unlock()
	}
}

// Lookup serves a page from the in-flight destage buffer: the newest
// pending version, if any, is copied into buf.
func (d *Destager) Lookup(id page.ID, buf page.Buf) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	req, ok := d.newest[id]
	if !ok {
		return false
	}
	copy(buf, req.data)
	d.hits++
	return true
}

// Contains reports whether a pending version of the page exists.
func (d *Destager) Contains(id page.ID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.newest[id]
	return ok
}

// MinPending returns the lowest queue position with an un-landed destage.
func (d *Destager) MinPending() (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.minPendingLocked()
}

func (d *Destager) minPendingLocked() (uint64, bool) {
	if len(d.pending) == 0 {
		return 0, false
	}
	var min uint64
	first := true
	for pos := range d.pending {
		if first || pos < min {
			min, first = pos, false
		}
	}
	return min, true
}

// WaitLanded blocks until every pending destage with position <= pos has
// landed (its disk write completed or was superseded).  The flash cache
// calls it before reusing a frame slot.
func (d *Destager) WaitLanded(pos uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	waited := false
	for {
		min, ok := d.minPendingLocked()
		if !ok || min > pos || d.stopped {
			return
		}
		if !waited {
			d.reuseWaits++
			waited = true
		}
		d.landed.Wait()
	}
}

// Drain blocks until the queue is empty and every write has landed.
func (d *Destager) Drain() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.pending) > 0 && d.err == nil {
		d.landed.Wait()
	}
	return d.err
}

// Close drains the queue and stops the workers.
func (d *Destager) Close() error {
	err := d.Drain()
	d.stop(false)
	d.wg.Wait()
	return err
}

// Abort stops the workers without draining; queued pages are discarded, as
// a crash would.  In-flight writes complete first so device access has
// quiesced when Abort returns.
func (d *Destager) Abort() {
	d.stop(true)
	d.wg.Wait()
}

func (d *Destager) stop(discard bool) {
	d.mu.Lock()
	d.stopped = true
	if discard {
		d.queue = nil
		d.pending = make(map[uint64]*destageReq)
		d.newest = make(map[page.ID]*destageReq)
	}
	d.notEmpty.Broadcast()
	d.notFull.Broadcast()
	d.landed.Broadcast()
	d.mu.Unlock()
}

func (d *Destager) failErr() error {
	if d.err != nil {
		return d.err
	}
	return ErrStopped
}

func (d *Destager) fillStats(s *metrics.PipelineStats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s.Destages = d.destages
	s.DestageWrites = d.destageWrites
	s.DestageMaxDepth = d.maxDepth
	s.ReuseWaits = d.reuseWaits
	s.DestageHits = d.hits
}
