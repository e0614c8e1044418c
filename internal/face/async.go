package face

// The asynchronous flash I/O pipeline: an Extension decorator that
// decouples DRAM buffer evictions from flash and disk I/O.
//
//	StageIn ──► staging ring ──► group writer ──► mvFIFO core ──► destager ──► disk
//	 (foreground)   (bounded,       (batches into    (GR/GSC        (worker pool,
//	                backpressure)   group writes)    unchanged)     write-behind)
//
// A page is always reachable while it moves through the pipeline: the
// staging ring serves lookups for pages not yet on flash, the core serves
// pages in the queue, and the destager's write-behind buffer serves dirty
// pages whose disk write has not landed.  Crash consistency follows from
// two invariants the core enforces with the destager's position watermark:
// a frame slot is never rewritten before its previous occupant's destage
// has landed, and the persistent front pointer never advances past an
// un-landed destage.  Pages lost from the volatile ring at a crash are
// redone from the write-ahead log, exactly like pages lost from the DRAM
// buffer (the engine forces the log before staging).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/reprolab/face/internal/iosched"
	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/page"
)

// DefaultAsyncDepth is the staging ring capacity WithAsyncIO uses when the
// caller passes a negative depth.
const DefaultAsyncDepth = 256

// Shutdowner is implemented by cache managers with background machinery
// the engine must stop: Shutdown drains and stops (clean close), Abort
// stops without draining (crash simulation).
type Shutdowner interface {
	Shutdown() error
	Abort()
}

// PipelineReporter exposes the background pipeline counters.
type PipelineReporter interface {
	PipelineStats() metrics.PipelineStats
}

// AsyncConfig configures the asynchronous I/O pipeline.
type AsyncConfig struct {
	// Depth is the staging ring capacity in pages (<= 0: DefaultAsyncDepth).
	Depth int
	// Writers is the number of destager workers draining dirty pages to
	// disk (<= 0: 1).  More workers exploit the parallelism of a striped
	// data array.
	Writers int
	// Batch bounds the pages per group-writer flush (<= 0: the core's
	// replacement group size), so one flush maps onto one group write.
	Batch int
}

// stagedPage is the wrapper-side record of a page in the staging ring (or
// in a batch being flushed): the newest staged version, served to lookups
// until the core publishes it.
type stagedPage struct {
	seq   uint64
	data  page.Buf
	dirty bool
	ref   bool
}

// asyncStripe is one independently locked slice of the staging map, keyed
// by the same Fibonacci hash as the core's directory stripes so a page
// lands on the same stripe index in both structures.  StageIn and Lookup
// for different pages never share a mutex, which keeps the async wrapper
// scaling the same way the striped sync path does.
type asyncStripe struct {
	mu     sync.Mutex
	staged map[page.ID]*stagedPage
	// ringHits counts lookups this stripe served from the staging map,
	// folded into Stats and StripeStats on demand.
	ringHits int64
}

// Async decorates an mvFIFO cache manager with the background pipeline.
type Async struct {
	core *MVFIFO
	pipe *iosched.Pipeline

	// stripes is the striped staging map; see asyncStripe.
	stripes []*asyncStripe
	// seq orders staged versions of a page across stripes and ring slots.
	seq    atomic.Uint64
	closed atomic.Bool
	// Stage-in counters for versions coalesced away in the ring: they
	// never reach the core, but counting them keeps the write-reduction
	// denominator comparable with the synchronous path.
	coalescedStageIns      atomic.Int64
	coalescedDirtyStageIns atomic.Int64
	coalescedCleanStageIns atomic.Int64
}

var (
	_ Extension        = (*Async)(nil)
	_ Shutdowner       = (*Async)(nil)
	_ PipelineReporter = (*Async)(nil)
	_ StripeReporter   = (*Async)(nil)
)

// NewAsync wraps an mvFIFO cache manager in the asynchronous group-write
// and destage pipeline.  Only mvFIFO cores are supported: the multi-version
// queue is what makes deferred group writes safe (of the versions of a page
// the last one staged wins; see StageIn for what callers owe in return).
func NewAsync(ext Extension, cfg AsyncConfig) (*Async, error) {
	core, ok := ext.(*MVFIFO)
	if !ok {
		return nil, fmt.Errorf("face: async I/O requires an mvFIFO policy (face, face+gr, face+gsc), got %T", ext)
	}
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultAsyncDepth
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 1
	}
	if cfg.Batch <= 0 {
		cfg.Batch = core.GroupSize()
	}

	// Under async I/O, write groups are topped up by the staging ring
	// batches instead of by pulling victims from the DRAM buffer.  A pull
	// would hand pages to the core behind the wrapper's back: a newer
	// pulled version could be shadowed by an older copy still sitting in
	// the staging ring, serving stale data.  Group Second Chance keeps its
	// survivor re-enqueue semantics; only the pull path is disabled.
	core.cfg.Pull = nil

	stripes := make([]*asyncStripe, core.Stripes())
	for i := range stripes {
		stripes[i] = &asyncStripe{staged: make(map[page.ID]*stagedPage)}
	}
	a := &Async{
		core:    core,
		stripes: stripes,
	}

	dest := iosched.NewDestager(cfg.Depth, cfg.Writers, func(id page.ID, data page.Buf) error {
		if err := core.cfg.DiskWrite(id, data); err != nil {
			return err
		}
		core.noteDiskWrite()
		return nil
	})
	// Install the destage hooks before the pipeline starts; see the MVFIFO
	// field docs for what each one guarantees.
	core.destage = func(pos uint64, id page.ID, data page.Buf) error {
		return dest.Enqueue(pos, id, data)
	}
	core.waitReuse = dest.WaitLanded
	core.persistFront = func(front uint64) uint64 {
		if min, ok := dest.MinPending(); ok && min < front {
			return min
		}
		return front
	}

	ring := iosched.NewRing(cfg.Depth)
	writer := iosched.NewGroupWriter(ring, cfg.Batch, a.flushBatch)
	a.pipe = &iosched.Pipeline{Ring: ring, Writer: writer, Dest: dest}
	return a, nil
}

// stripe returns the staging stripe holding the given page id.
func (a *Async) stripe(id page.ID) *asyncStripe {
	return a.stripes[stripeIndex(id, len(a.stripes))]
}

// flushBatch runs on the group-writer goroutine: it publishes one ring
// batch into the core as a single group write, then retires the staged
// versions it covered.
func (a *Async) flushBatch(items []iosched.Item) error {
	batch := make([]StageItem, len(items))
	for i, it := range items {
		// Merge reference bits earned while the page sat in the ring so
		// Group Second Chance sees ring hits like frame hits.
		st := a.stripe(it.ID)
		st.mu.Lock()
		if cur, ok := st.staged[it.ID]; ok && cur.seq == it.Seq {
			it.Ref = it.Ref || cur.ref
		}
		st.mu.Unlock()
		batch[i] = StageItem{ID: it.ID, Data: it.Data, Dirty: it.Dirty, FDirty: it.FDirty, Ref: it.Ref}
	}

	if err := a.core.StageBatch(batch); err != nil {
		return err
	}

	for _, it := range items {
		st := a.stripe(it.ID)
		st.mu.Lock()
		if cur, ok := st.staged[it.ID]; ok && cur.seq == it.Seq {
			delete(st.staged, it.ID)
		}
		st.mu.Unlock()
	}
	return nil
}

// Name returns the core policy name.
func (a *Async) Name() string { return a.core.Name() }

// Capacity returns the core frame count.
func (a *Async) Capacity() int { return a.core.Capacity() }

// Len returns the number of occupied core frames.
func (a *Async) Len() int { return a.core.Len() }

// StageIn stages an evicted page into the ring and returns without waiting
// for flash I/O; it blocks only when the ring is full (backpressure).
//
// Of the versions of one page the last to arrive wins, whatever their
// LSNs: seq is minted before the stripe lock is taken, and neither the
// staging map nor the ring compares LSNs.  Callers must therefore stage the
// versions of a page one at a time and in order.  The engine does: a page
// leaves the buffer pool under its busy latch, so a second eviction of the
// same page cannot start before the first StageIn has returned.  Stage-ins
// of different pages may run concurrently.
func (a *Async) StageIn(id page.ID, data page.Buf, dirty, fdirty bool) error {
	if a.closed.Load() {
		return ErrClosed
	}
	img := data.Clone()
	seq := a.seq.Add(1)
	st := a.stripe(id)
	st.mu.Lock()
	st.staged[id] = &stagedPage{seq: seq, data: img, dirty: dirty}
	st.mu.Unlock()

	old, superseded, err := a.pipe.Ring.Put(iosched.Item{ID: id, Data: img, Dirty: dirty, FDirty: fdirty, Seq: seq})
	if err != nil {
		st.mu.Lock()
		if cur, ok := st.staged[id]; ok && cur.seq == seq {
			delete(st.staged, id)
		}
		st.mu.Unlock()
		return err
	}
	if superseded {
		a.coalescedStageIns.Add(1)
		if old.Dirty {
			a.coalescedDirtyStageIns.Add(1)
		} else {
			a.coalescedCleanStageIns.Add(1)
		}
	}
	return nil
}

// Lookup serves the page from the newest place it exists: the staging
// ring, the mvFIFO queue, or the destager's write-behind buffer.
func (a *Async) Lookup(id page.ID, buf page.Buf) (bool, bool, error) {
	if a.closed.Load() {
		return false, false, ErrClosed
	}
	st := a.stripe(id)
	st.mu.Lock()
	if s, ok := st.staged[id]; ok {
		copy(buf, s.data)
		s.ref = true
		st.ringHits++
		dirty := s.dirty
		st.mu.Unlock()
		return true, dirty, nil
	}
	st.mu.Unlock()

	found, dirty, err := a.core.Lookup(id, buf)
	if err != nil || found {
		return found, dirty, err
	}
	if a.pipe.Dest.Lookup(id, buf) {
		// The destage has not landed yet, so the buffered copy is newer
		// than (or equal to) the disk copy.
		return true, true, nil
	}
	return false, false, nil
}

// Contains reports whether any stage of the pipeline holds the page.
func (a *Async) Contains(id page.ID) bool {
	st := a.stripe(id)
	st.mu.Lock()
	_, ok := st.staged[id]
	st.mu.Unlock()
	return ok || a.core.Contains(id) || a.pipe.Dest.Contains(id)
}

// CopyLSN reports the core's directory entry.  A version still in the
// staging ring is newer than the core's copy, so the answer never claims a
// newer copy than Lookup serves.
func (a *Async) CopyLSN(id page.ID) (page.LSN, bool) { return a.core.CopyLSN(id) }

// Checkpoint drains the staging ring into the core so every page offered
// to the cache is durable in flash, then checkpoints the core's metadata
// directory.
func (a *Async) Checkpoint() error {
	if err := a.pipe.Writer.Drain(); err != nil {
		return err
	}
	return a.core.Checkpoint()
}

// Recover rebuilds the core directory; the pipeline of a freshly opened
// cache is empty.
func (a *Async) Recover() error {
	if err := a.pipe.Writer.Drain(); err != nil {
		return err
	}
	return a.core.Recover()
}

// FlushAll drains the pipeline end to end and writes every dirty cached
// page to disk: ring to flash, flash to destager, destager to disk.
func (a *Async) FlushAll() error {
	if err := a.pipe.Writer.Drain(); err != nil {
		return err
	}
	if err := a.core.FlushAll(); err != nil {
		return err
	}
	if err := a.pipe.Dest.Drain(); err != nil {
		return err
	}
	// The destager's disk writes landed after the core flush's barrier;
	// cover them too so the wrapper honours FlushAll's durability claim.
	if a.core.cfg.DiskSync != nil {
		return a.core.cfg.DiskSync()
	}
	return nil
}

// ringHitTotal sums the per-stripe ring hit counters.
func (a *Async) ringHitTotal() int64 {
	var total int64
	for _, st := range a.stripes {
		st.mu.Lock()
		total += st.ringHits
		st.mu.Unlock()
	}
	return total
}

// Stats folds the pipeline's lookup activity into the core statistics so
// hit ratios count pages served from the ring and the write-behind buffer.
func (a *Async) Stats() Stats {
	s := a.core.Stats()
	ringHits := a.ringHitTotal()
	s.Lookups += ringHits
	s.Hits += ringHits
	s.StageIns += a.coalescedStageIns.Load()
	s.DirtyStageIns += a.coalescedDirtyStageIns.Load()
	s.CleanStageIns += a.coalescedCleanStageIns.Load()
	s.Hits += a.pipe.Stats().DestageHits
	return s
}

// StripeStats returns the per-stripe lookup counters: the core directory
// stripes with this wrapper's ring hits folded into the matching stripe
// (the staging map is striped by the same hash, so indexes align).
func (a *Async) StripeStats() []metrics.CacheStripeStats {
	out := a.core.StripeStats()
	for i, st := range a.stripes {
		if i >= len(out) {
			break
		}
		st.mu.Lock()
		out[i].Lookups += st.ringHits
		out[i].Hits += st.ringHits
		st.mu.Unlock()
	}
	return out
}

// PipelineStats returns the background pipeline counters.
func (a *Async) PipelineStats() metrics.PipelineStats {
	s := a.pipe.Stats()
	s.RingHits = a.ringHitTotal()
	return s
}

// Shutdown drains the pipeline and stops its goroutines (clean close).
func (a *Async) Shutdown() error {
	if a.closed.Swap(true) {
		return nil
	}
	return a.pipe.Close()
}

// Abort stops the pipeline without draining: staged pages and queued
// destages are discarded, as a crash would lose them.  Device access has
// quiesced when Abort returns.
func (a *Async) Abort() {
	if a.closed.Swap(true) {
		return
	}
	a.pipe.Abort()
}
