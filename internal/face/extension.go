// Package face implements the paper's contribution: flash memory used as
// an extension of the DRAM buffer ("Flash as Cache Extension").
//
// The package provides several cache managers behind one Extension
// interface:
//
//   - mvFIFO: the FaCE multi-version FIFO replacement (Section 3.2/3.3),
//     optionally with Group Replacement (GR) and Group Second Chance (GSC).
//   - LC: the Lazy Cleaning baseline (LRU, write-back, random in-place
//     flash writes) the paper compares against.
//   - Write-through: a TAC-style baseline that writes dirty evictions to
//     both flash and disk.
//
// All managers cache pages on *exit* from the DRAM buffer and serve
// lookups on DRAM misses.  The FaCE manager additionally keeps its
// metadata directory persistent in flash (Section 4.1) so that cached
// pages extend the persistent database and survive crashes.
package face

import (
	"errors"

	"github.com/reprolab/face/internal/page"
)

// Errors returned by cache managers.
var (
	ErrTooSmall = errors.New("face: flash cache must hold at least one group of frames")
	ErrClosed   = errors.New("face: cache is closed")
)

// Extension is the interface between the database engine and a flash
// cache manager.
type Extension interface {
	// Name identifies the policy, e.g. "FaCE+GSC" or "LC".
	Name() string

	// Lookup searches the flash cache for a page.  On a hit the page
	// image is copied into buf and dirty reports whether the cached copy
	// is newer than the disk copy.
	Lookup(id page.ID, buf page.Buf) (found bool, dirty bool, err error)

	// Contains reports whether a valid copy of the page is cached,
	// without counting as a reference.
	Contains(id page.ID) bool

	// StageIn offers a page evicted from the DRAM buffer to the cache.
	// dirty means the page is newer than its disk copy; fdirty means it
	// is newer than its flash copy (Algorithm 1 in the paper).  data is
	// lent: every manager copies what it keeps before it returns and
	// never writes to the image, so the caller may reuse it — the buffer
	// pool does, for the page it evicted to make room for — or offer the
	// same image again.
	StageIn(id page.ID, data page.Buf, dirty, fdirty bool) error

	// Checkpoint participates in a database checkpoint.  For FaCE this
	// forces the metadata directory segment to flash (cheap); for LC it
	// writes all dirty cached pages to disk (expensive), mirroring the
	// behaviour the paper attributes to each scheme.
	Checkpoint() error

	// Recover rebuilds the in-memory cache metadata after a crash.  For
	// FaCE the persistent metadata directory and a bounded scan of
	// recently written frames restore the cache; for the baselines the
	// cache restarts cold.
	Recover() error

	// FlushAll writes every valid dirty cached page to disk.  It is used
	// for clean shutdown and by tests to verify durability invariants.
	FlushAll() error

	// Capacity returns the number of page frames in the cache.
	Capacity() int

	// Len returns the number of occupied frames (including invalid
	// multi-version duplicates for mvFIFO).
	Len() int

	// Stats returns a snapshot of cache statistics.
	Stats() Stats
}

// Stats captures flash cache activity.  The hit rate and write reduction
// derived from these counters reproduce Table 3 of the paper.
type Stats struct {
	// Lookups is the number of flash cache probes (= DRAM buffer misses).
	Lookups int64
	// Hits is the number of probes served from the flash cache.
	Hits int64

	// StageIns counts pages offered to the cache on DRAM eviction.
	StageIns      int64
	DirtyStageIns int64
	CleanStageIns int64

	// FlashPageWrites counts 4 KiB pages written to the flash device.
	FlashPageWrites int64
	// FlashPageReads counts 4 KiB pages read from the flash device.
	FlashPageReads int64
	// DiskPageWrites counts dirty pages the cache wrote back to disk.
	DiskPageWrites int64

	// Invalidations counts older versions invalidated by new enqueues
	// (mvFIFO) or overwritten in place (LC).
	Invalidations int64
	// SecondChances counts frames re-enqueued by Group Second Chance.
	SecondChances int64
	// Pulled counts DRAM victims pulled from the buffer's LRU tail to
	// fill a write group (GSC).
	Pulled int64
	// MetadataFlushes counts persistent metadata segment writes.
	MetadataFlushes int64
	// Duplicates is a point-in-time gauge of extra (invalid) versions
	// resident in the cache, sampled at stage-in time.
	Duplicates int64
}

// HitRate returns the ratio of flash cache hits to all DRAM misses
// (Table 3a of the paper).
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// WriteReduction returns the fraction of dirty DRAM evictions whose disk
// write was eliminated by the cache (Table 3b of the paper).
func (s Stats) WriteReduction() float64 {
	if s.DirtyStageIns == 0 {
		return 0
	}
	r := 1 - float64(s.DiskPageWrites)/float64(s.DirtyStageIns)
	if r < 0 {
		return 0
	}
	return r
}

// DiskWriteFunc writes a dirty page back to the database on disk.  The
// engine supplies it so cache managers do not depend on the disk store.
// data is lent for the call: the cache reuses the image afterwards.
type DiskWriteFunc func(id page.ID, data page.Buf) error

// PulledPage is a DRAM buffer victim pulled by Group Second Chance to top
// up a write group (Section 3.3).
type PulledPage struct {
	ID page.ID
	// Data is handed over: the page has left the DRAM buffer and the image
	// is the cache's until the page's new flash frame is published.
	Data page.Buf
	// Home is the free list the cache gives Data back to then, so that the
	// buffer the image came from does not have to allocate a replacement;
	// with none set the image falls to the collector.
	Home   *page.FreeList
	Dirty  bool
	FDirty bool
}

// PullFunc removes up to n victims from the DRAM buffer's LRU tail and
// passes them to take (or does not call it, when there are none).  While
// they change hands the pages are in neither the buffer nor the cache, so
// the buffer keeps them latched — a miss on one waits — until take returns,
// by when the cache has made them reachable to lookups.
type PullFunc func(n int, take func([]PulledPage))
