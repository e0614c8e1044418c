package face

import (
	"container/list"
	"fmt"
	"sync"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// LCConfig configures the Lazy Cleaning baseline (Do et al., SIGMOD 2011),
// the closest competitor evaluated in the paper: pages are cached on exit
// from the DRAM buffer, managed by LRU replacement with in-place frame
// overwrites (random flash writes), and handled with a write-back policy.
// A lazy cleaner flushes dirty frames to disk once their fraction exceeds a
// threshold.
//
// Setting WriteThrough builds the TAC-style write-through variant instead:
// dirty pages are written to both the flash cache and disk on eviction, so
// the cache never holds a dirty frame.  The paper uses this policy as the
// design alternative rejected in Section 3.2.
type LCConfig struct {
	// Dev is the flash device dedicated to the cache.
	Dev device.Dev
	// Frames is the number of 4 KiB frames in the cache.
	Frames int
	// DiskWrite writes a dirty page back to the database on disk.
	DiskWrite DiskWriteFunc
	// CleanThreshold is the dirty-frame fraction that triggers the lazy
	// cleaner (default 0.75).  Ignored with WriteThrough.
	CleanThreshold float64
	// CleanBatch is the number of dirty frames flushed per cleaning pass
	// (default 32).
	CleanBatch int
	// WriteThrough selects the write-through policy.
	WriteThrough bool
	// Label overrides the derived policy name.
	Label string
}

func (c *LCConfig) applyDefaults() {
	if c.CleanThreshold <= 0 || c.CleanThreshold > 1 {
		c.CleanThreshold = 0.75
	}
	if c.CleanBatch <= 0 {
		c.CleanBatch = 32
	}
}

func (c *LCConfig) name() string {
	if c.Label != "" {
		return c.Label
	}
	if c.WriteThrough {
		return "WT"
	}
	return "LC"
}

type lcFrame struct {
	id    page.ID
	slot  int64
	dirty bool
	elem  *list.Element
}

// LC is the LRU flash cache baseline.
type LC struct {
	mu  sync.Mutex
	cfg LCConfig

	frames map[page.ID]*lcFrame
	lru    *list.List // front = MRU
	free   []int64    // unused frame slots

	dirtyCount int
	stats      Stats
}

// NewLC creates an LC (or write-through) cache on the given flash device.
func NewLC(cfg LCConfig) (*LC, error) {
	cfg.applyDefaults()
	if cfg.Dev == nil {
		return nil, fmt.Errorf("face: nil flash device")
	}
	if cfg.DiskWrite == nil {
		return nil, fmt.Errorf("face: nil DiskWrite callback")
	}
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("%w: %d frames", ErrTooSmall, cfg.Frames)
	}
	if int64(cfg.Frames) > cfg.Dev.NumBlocks() {
		return nil, fmt.Errorf("face: device has %d blocks, need %d", cfg.Dev.NumBlocks(), cfg.Frames)
	}
	c := &LC{
		cfg:    cfg,
		frames: make(map[page.ID]*lcFrame, cfg.Frames),
		lru:    list.New(),
		free:   make([]int64, 0, cfg.Frames),
	}
	for slot := int64(cfg.Frames) - 1; slot >= 0; slot-- {
		c.free = append(c.free, slot)
	}
	return c, nil
}

// Name returns the policy name.
func (c *LC) Name() string { return c.cfg.name() }

// Capacity returns the number of frames.
func (c *LC) Capacity() int { return c.cfg.Frames }

// Len returns the number of cached pages.
func (c *LC) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// Stats returns a snapshot of the statistics.
func (c *LC) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Contains reports whether the page is cached.
func (c *LC) Contains(id page.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.frames[id]
	return ok
}

// Lookup searches the cache for the page.
func (c *LC) Lookup(id page.ID, buf page.Buf) (bool, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Lookups++
	f, ok := c.frames[id]
	if !ok {
		return false, false, nil
	}
	//lint:allow facevet/nolockio the single-lock LC baseline (Do et al.) serializes I/O under the cache mutex by design; FaCE's two-lock protocol is the improvement under test
	if err := c.cfg.Dev.ReadAt(f.slot, buf); err != nil {
		return false, false, fmt.Errorf("face: reading LC frame %d: %w", f.slot, err)
	}
	c.stats.FlashPageReads++
	c.stats.Hits++
	c.lru.MoveToFront(f.elem)
	return true, f.dirty, nil
}

// StageIn caches a page evicted from the DRAM buffer.
func (c *LC) StageIn(id page.ID, data page.Buf, dirty, fdirty bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.StageIns++
	if dirty {
		c.stats.DirtyStageIns++
	} else {
		c.stats.CleanStageIns++
	}

	if c.cfg.WriteThrough && dirty {
		// Write-through: the disk copy is updated immediately, so the
		// cached copy is clean.
		if err := c.cfg.DiskWrite(id, data); err != nil {
			return fmt.Errorf("face: write-through to disk for page %d: %w", id, err)
		}
		c.stats.DiskPageWrites++
		dirty = false
	}

	if f, ok := c.frames[id]; ok {
		// In-place overwrite of the existing frame (a random flash
		// write).  Skip the write when the cached copy is identical.
		if fdirty {
			//lint:allow facevet/nolockio single-lock LC baseline: in-place frame overwrite under the cache mutex is the design being measured
			if err := c.cfg.Dev.WriteAt(f.slot, data); err != nil {
				return fmt.Errorf("face: overwriting LC frame %d: %w", f.slot, err)
			}
			c.stats.FlashPageWrites++
			c.stats.Invalidations++
			if dirty && !f.dirty {
				c.dirtyCount++
			}
			f.dirty = f.dirty || dirty
		}
		c.lru.MoveToFront(f.elem)
		//lint:allow facevet/nolockio single-lock LC baseline: lazy cleaning runs under the cache mutex by design
		return c.lazyCleanLocked()
	}

	//lint:allow facevet/nolockio single-lock LC baseline: eviction write-back happens under the cache mutex by design
	slot, err := c.allocSlotLocked()
	if err != nil {
		return err
	}
	//lint:allow facevet/nolockio single-lock LC baseline: the staging write happens under the cache mutex by design
	if err := c.cfg.Dev.WriteAt(slot, data); err != nil {
		return fmt.Errorf("face: writing LC frame %d: %w", slot, err)
	}
	c.stats.FlashPageWrites++
	f := &lcFrame{id: id, slot: slot, dirty: dirty}
	f.elem = c.lru.PushFront(f)
	c.frames[id] = f
	if dirty {
		c.dirtyCount++
	}
	//lint:allow facevet/nolockio single-lock LC baseline: lazy cleaning runs under the cache mutex by design
	return c.lazyCleanLocked()
}

// allocSlotLocked returns a free frame slot, evicting the LRU frame if the
// cache is full.
func (c *LC) allocSlotLocked() (int64, error) {
	if n := len(c.free); n > 0 {
		slot := c.free[n-1]
		c.free = c.free[:n-1]
		return slot, nil
	}
	e := c.lru.Back()
	if e == nil {
		return 0, fmt.Errorf("face: LC cache has no evictable frame")
	}
	f := e.Value.(*lcFrame)
	if f.dirty {
		buf := page.NewBuf()
		if err := c.cfg.Dev.ReadAt(f.slot, buf); err != nil {
			return 0, fmt.Errorf("face: reading LC victim frame %d: %w", f.slot, err)
		}
		c.stats.FlashPageReads++
		if err := c.cfg.DiskWrite(f.id, buf); err != nil {
			return 0, fmt.Errorf("face: staging out page %d: %w", f.id, err)
		}
		c.stats.DiskPageWrites++
		c.dirtyCount--
	}
	c.lru.Remove(e)
	delete(c.frames, f.id)
	return f.slot, nil
}

// lazyCleanLocked flushes dirty frames from the LRU end to disk when the
// dirty fraction exceeds the configured threshold.
func (c *LC) lazyCleanLocked() error {
	if c.cfg.WriteThrough {
		return nil
	}
	threshold := int(c.cfg.CleanThreshold * float64(c.cfg.Frames))
	if c.dirtyCount <= threshold {
		return nil
	}
	cleaned := 0
	buf := page.NewBuf()
	for e := c.lru.Back(); e != nil && cleaned < c.cfg.CleanBatch && c.dirtyCount > 0; e = e.Prev() {
		f := e.Value.(*lcFrame)
		if !f.dirty {
			continue
		}
		if err := c.cfg.Dev.ReadAt(f.slot, buf); err != nil {
			return fmt.Errorf("face: lazy cleaner reading frame %d: %w", f.slot, err)
		}
		c.stats.FlashPageReads++
		if err := c.cfg.DiskWrite(f.id, buf); err != nil {
			return fmt.Errorf("face: lazy cleaner writing page %d: %w", f.id, err)
		}
		c.stats.DiskPageWrites++
		f.dirty = false
		c.dirtyCount--
		cleaned++
	}
	return nil
}

// Checkpoint writes every dirty cached frame to disk.  Unlike FaCE, the LC
// scheme does not extend the persistent database to the flash cache, so
// its dirty flash-resident pages remain subject to database checkpointing
// (Section 2.3 of the paper).
func (c *LC) Checkpoint() error {
	return c.FlushAll()
}

// Recover restarts the cache cold: LC keeps no persistent metadata, so the
// cached pages are unusable after a crash.
func (c *LC) Recover() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = make(map[page.ID]*lcFrame, c.cfg.Frames)
	c.lru.Init()
	c.free = c.free[:0]
	for slot := int64(c.cfg.Frames) - 1; slot >= 0; slot-- {
		c.free = append(c.free, slot)
	}
	c.dirtyCount = 0
	return nil
}

// FlushAll writes every dirty frame to disk and marks it clean.
func (c *LC) FlushAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := page.NewBuf()
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*lcFrame)
		if !f.dirty {
			continue
		}
		//lint:allow facevet/nolockio single-lock LC baseline: FlushAll is a shutdown/benchmark fence, no readers run concurrently
		if err := c.cfg.Dev.ReadAt(f.slot, buf); err != nil {
			return fmt.Errorf("face: flush reading frame %d: %w", f.slot, err)
		}
		c.stats.FlashPageReads++
		if err := c.cfg.DiskWrite(f.id, buf); err != nil {
			return fmt.Errorf("face: flush writing page %d: %w", f.id, err)
		}
		c.stats.DiskPageWrites++
		f.dirty = false
		c.dirtyCount--
	}
	return nil
}

// DirtyFrames returns the number of dirty frames (diagnostics).
func (c *LC) DirtyFrames() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirtyCount
}

// compile-time interface checks
var (
	_ Extension = (*MVFIFO)(nil)
	_ Extension = (*LC)(nil)
)
