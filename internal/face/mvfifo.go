package face

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// DefaultGroupSize is the default batch size for Group Replacement and
// Group Second Chance.  The paper suggests the number of pages in a flash
// memory block, typically 64 or 128.
const DefaultGroupSize = 64

// DefaultSegmentEntries is the default number of metadata entries per
// persistent segment.  The paper uses 64 000 entries (1.5 MB); the default
// here is smaller so that scaled-down experiments exercise segment
// recycling, and it is configurable.
const DefaultSegmentEntries = 4096

// MVFIFOConfig configures a FaCE mvFIFO cache manager.
type MVFIFOConfig struct {
	// Dev is the flash device dedicated to the cache.
	Dev device.Dev
	// Frames is the number of 4 KiB data frames in the cache.
	Frames int
	// GroupSize is the replacement batch size.  1 disables grouping
	// (plain FaCE); larger values enable Group Replacement.
	GroupSize int
	// SecondChance enables Group Second Chance: referenced frames are
	// re-enqueued instead of being staged out.
	SecondChance bool
	// SegmentEntries is the number of metadata entries per persistent
	// segment (Section 4.1): 0 selects DefaultSegmentEntries, and values
	// above Frames are clamped to it (see computeLayout).
	SegmentEntries int
	// Stripes is the number of independently locked directory stripes the
	// lookup structures (page directory, in-transit map) are split over,
	// so Lookup/Contains on different pages never contend.  Values below
	// 1 select a single stripe, which reproduces the historical
	// single-mutex lookup path.
	Stripes int
	// DiskWrite writes a dirty page back to the database on disk.
	DiskWrite DiskWriteFunc
	// DiskSync, when non-nil, is the data device's durability barrier.  It
	// is called before the persistent metadata directory records an
	// advanced front pointer, so a crash can never find the front past a
	// destaged page whose disk write is still in the OS page cache (the
	// destage-before-front-advance invariant on real media).
	DiskSync func() error
	// Pull, when non-nil, lets Group Second Chance top up a write group
	// with victims pulled from the DRAM buffer's LRU tail.
	Pull PullFunc
	// Label overrides the derived policy name.
	Label string
}

func (c *MVFIFOConfig) applyDefaults() {
	if c.GroupSize <= 0 {
		c.GroupSize = 1
	}
	if c.Stripes <= 0 {
		c.Stripes = 1
	}
}

// name derives a display name matching the paper's terminology.
func (c *MVFIFOConfig) name() string {
	if c.Label != "" {
		return c.Label
	}
	switch {
	case c.GroupSize > 1 && c.SecondChance:
		return "FaCE+GSC"
	case c.GroupSize > 1:
		return "FaCE+GR"
	default:
		return "FaCE"
	}
}

// frameMeta is the in-memory metadata of one flash frame (writer-path
// state, guarded by mu).  The reference bit lives in MVFIFO.refs so the
// lock-free lookup path can set it without touching mu.
type frameMeta struct {
	id    page.ID
	lsn   page.LSN
	valid bool
	dirty bool
	used  bool
}

// dirEntry is one page's entry in the striped lookup directory: the
// absolute queue position of its valid copy plus the copy's LSN and dirty
// flag, denormalized from the frame metadata so a lookup never needs the
// queue metadata lock.  Writers keep the entry in sync with meta under the
// owning stripe's lock.
type dirEntry struct {
	pos   uint64
	lsn   page.LSN
	dirty bool
}

// dirStripe is one independently locked slice of the lookup structures.
// Lookups for a page take only its stripe's lock; the writer path takes
// stripe locks nested inside mu (never the other way around), so lookups
// on different pages proceed concurrently with each other and with group
// writes.
type dirStripe struct {
	mu  sync.Mutex
	dir map[page.ID]dirEntry // page id -> valid copy
	// transit holds pages that are momentarily in neither the queue nor
	// the DRAM buffer: second-chance survivors between makeRoom clearing
	// their old frame and the re-enqueue publishing the new one, and DRAM
	// victims pulled into a write group.  Lookups are served from it so a
	// dirty page can never miss into a stale disk copy mid-group-write.
	transit map[page.ID]stageItem

	// Lookup-path counters, folded into Stats on demand.
	lookups    int64
	hits       int64
	flashReads int64
}

// MVFIFO is the FaCE cache manager: a multi-version FIFO queue of page
// frames on flash with optional group replacement and group second chance,
// plus a persistent metadata directory for recovery.
//
// Concurrency is split between three layers so that lookups never wait on
// group writes or on each other:
//
//   - stripes: the page directory and in-transit map are striped by page
//     id, each stripe under its own mutex.  Lookup and Contains touch only
//     the target page's stripe; a group write publishing other pages never
//     blocks them.  Directory entries carry the position, LSN and dirty
//     flag of the valid copy, so the lookup path resolves, reads the
//     device, and revalidates entirely under the stripe lock.
//   - mu guards the queue metadata (front, seq, meta, writer-side stats)
//     and is never held across device I/O.  The writer path may take a
//     stripe lock while holding mu; the reverse order never occurs.
//   - wrMu serializes the writer path (StageIn, Checkpoint,
//     Recover, FlushAll) and protects the metadata directory; the device
//     I/O of a group write happens under wrMu alone.
//
// Torn reads cannot escape: queue positions are absolute and never reused,
// and a frame slot is only rewritten after makeRoom removed (under the
// stripe locks) every directory entry pointing into the recycled window.
// A lookup that resolved position p before the removal revalidates
// dir[id].pos == p after its device read and retries when the entry moved.
type MVFIFO struct {
	cfg    MVFIFOConfig
	layout layout

	// wrMu serializes the writer path; see the type comment.
	wrMu sync.Mutex

	// mu guards the fields below and is never held across device I/O
	// (except during Recover, which runs before any concurrency).
	mu sync.Mutex

	// Queue state.  front and seq are absolute (monotonically increasing)
	// positions; the frame slot of position p is p % capacity.
	front uint64
	seq   uint64

	meta []frameMeta

	// stats holds the writer-path counters; the lookup-path counters live
	// in the stripes and are folded in by Stats.
	stats Stats

	// stripes is the striped lookup directory; see dirStripe.
	stripes []*dirStripe

	// refs holds the per-slot reference bits consulted by Group Second
	// Chance.  They are atomic so the lookup path can set them without
	// taking mu.
	refs []atomic.Bool

	closed atomic.Bool

	// metadir is writer-path state, protected by wrMu.
	metadir *metaDirectory

	// The writer path's own page images and scratch, all under wrMu.
	//
	// images holds the frame images group replacement reads the front of
	// the queue into.  makeRoom takes them, and every one comes back: at
	// once when its page was destaged or forced out, after enqueue has
	// published the new frame when it survived.  A second round of making
	// room can start while the first round's survivors are still out, so
	// the list is bounded by two groups.
	images *page.FreeList
	// stage is the run a write group is stamped in and written from, and
	// pages its blocks as WriteRun wants them; both grow to the largest
	// group written.  items is the list StageIn builds for enqueue, kept
	// for its storage, and room the lists makeRoom builds, each one
	// replacement group long.
	stage []byte
	pages [][]byte
	items []stageItem
	room  struct {
		metas     []frameMeta
		refs      []bool
		want      []bool
		frames    []page.Buf
		survivors []stageItem
	}
}

// NewMVFIFO creates a FaCE cache manager on the given flash device.  The
// device must be large enough to hold the requested number of frames plus
// the superblock and metadata region.
func NewMVFIFO(cfg MVFIFOConfig) (*MVFIFO, error) {
	cfg.applyDefaults()
	if cfg.Dev == nil {
		return nil, fmt.Errorf("face: nil flash device")
	}
	if cfg.DiskWrite == nil {
		return nil, fmt.Errorf("face: nil DiskWrite callback")
	}
	if cfg.Frames < cfg.GroupSize || cfg.Frames < 1 {
		return nil, fmt.Errorf("%w: %d frames, group size %d", ErrTooSmall, cfg.Frames, cfg.GroupSize)
	}
	lay := computeLayout(cfg.Frames, cfg.SegmentEntries)
	cfg.SegmentEntries = lay.segEntries
	if lay.totalBlocks() > cfg.Dev.NumBlocks() {
		return nil, fmt.Errorf("face: device has %d blocks, need %d (frames=%d, metadata=%d)",
			cfg.Dev.NumBlocks(), lay.totalBlocks(), cfg.Frames, lay.metaBlocks)
	}
	m := &MVFIFO{
		cfg:     cfg,
		layout:  lay,
		meta:    make([]frameMeta, cfg.Frames),
		refs:    make([]atomic.Bool, cfg.Frames),
		stripes: newStripes(cfg.Stripes, cfg.Frames),
		images:  page.NewFreeList(2 * cfg.GroupSize),
	}
	m.room.metas = make([]frameMeta, cfg.GroupSize)
	m.room.refs = make([]bool, cfg.GroupSize)
	m.room.want = make([]bool, cfg.GroupSize)
	m.room.frames = make([]page.Buf, cfg.GroupSize)
	m.room.survivors = make([]stageItem, 0, cfg.GroupSize)
	// The persistent superblock is written lazily (on the first metadata
	// flush or checkpoint) so that constructing a manager over a device
	// that already holds a FaCE cache — the crash-recovery path — does not
	// clobber the recoverable state.
	m.metadir = newMetaDirectory(cfg.Dev, lay)
	m.metadir.preSync = cfg.DiskSync
	return m, nil
}

// FlashDeviceBlocks returns the minimum flash-device capacity in blocks
// for a cache of frames data frames with the given metadata segment size
// (0 = DefaultSegmentEntries, clamped to frames): superblock + metadata
// region + frames.  The engine and the benchmark harness use it (plus
// FlashDeviceSlack) to size flash devices.
func FlashDeviceBlocks(frames, segEntries int) int64 {
	return computeLayout(frames, segEntries).totalBlocks()
}

// FlashDeviceSlack is the headroom added on top of FlashDeviceBlocks when
// sizing a flash device, absorbing future layout growth without resizing.
const FlashDeviceSlack = 64

// stripeIndex maps a page id to one of n stripes with a Fibonacci
// multiplicative hash, which scatters the mostly sequential page ids of a
// fresh database; every striped structure keyed by page id shares it so a
// page always lands on the same stripe index everywhere.
func stripeIndex(id page.ID, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(n))
}

// newStripes allocates n directory stripes sized for the given frame count.
func newStripes(n, frames int) []*dirStripe {
	if n < 1 {
		n = 1
	}
	per := frames/n + 1
	out := make([]*dirStripe, n)
	for i := range out {
		out[i] = &dirStripe{
			dir:     make(map[page.ID]dirEntry, per),
			transit: make(map[page.ID]stageItem),
		}
	}
	return out
}

// stripe returns the directory stripe holding the given page id.
func (m *MVFIFO) stripe(id page.ID) *dirStripe {
	return m.stripes[stripeIndex(id, len(m.stripes))]
}

// Name returns the policy name.
func (m *MVFIFO) Name() string { return m.cfg.name() }

// Capacity returns the number of data frames.
func (m *MVFIFO) Capacity() int { return m.cfg.Frames }

// GroupSize returns the replacement batch size.
func (m *MVFIFO) GroupSize() int { return m.cfg.GroupSize }

// Stripes returns the number of directory stripes.
func (m *MVFIFO) Stripes() int { return len(m.stripes) }

// Len returns the number of occupied frames, including invalid duplicates.
func (m *MVFIFO) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int(m.seq - m.front)
}

// Stats returns a snapshot of the statistics: the writer-path counters
// under mu plus the lookup-path counters of every stripe, each read under
// its own lock.  mu is held across the stripe sweep (the writer-path
// nesting order) so the queue window and the directory sizes come from
// one moment — Duplicates can never go negative against a concurrent
// stage-in.
func (m *MVFIFO) Stats() Stats {
	m.mu.Lock()
	s := m.stats
	window := int64(m.seq - m.front)
	dirLen := int64(0)
	for _, st := range m.stripes {
		st.mu.Lock()
		s.Lookups += st.lookups
		s.Hits += st.hits
		s.FlashPageReads += st.flashReads
		dirLen += int64(len(st.dir))
		st.mu.Unlock()
	}
	m.mu.Unlock()
	s.Duplicates = window - dirLen
	return s
}

// CopyLSN returns the pageLSN of the page's valid flash copy, as the
// directory records it (Recover restores it from the persistent metadata).
// ok is false when the directory has no entry for the page or the page is
// in transit between frames.
func (m *MVFIFO) CopyLSN(id page.ID) (page.LSN, bool) {
	st := m.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, moving := st.transit[id]; moving {
		return 0, false
	}
	e, ok := st.dir[id]
	return e.lsn, ok
}

// Contains reports whether a valid copy of the page is cached.  It takes
// only the page's stripe lock, so probes for different pages never contend
// with each other or with an in-flight group write.
func (m *MVFIFO) Contains(id page.ID) bool {
	st := m.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.dir[id]; ok {
		return true
	}
	_, ok := st.transit[id]
	return ok
}

// Lookup searches the cache for the page and, on a hit, copies the frame
// into buf and sets the frame's reference bit (used by second chance).
//
// The lookup runs entirely against the page's directory stripe: resolve
// the position, read the frame from the device with the stripe lock
// released, and revalidate that the directory still points at the same
// absolute position.  Positions are never reused, and a writer recycling
// the slot removes or repoints the entry first (under this stripe's lock),
// so a stale image always fails revalidation and the lookup retries.
func (m *MVFIFO) Lookup(id page.ID, buf page.Buf) (bool, bool, error) {
	if m.closed.Load() {
		return false, false, ErrClosed
	}
	capacity := uint64(m.cfg.Frames)
	st := m.stripe(id)
	st.mu.Lock()
	st.lookups++
	for {
		// A page in transit is newer than anything the directory has for it:
		// a second-chance survivor has no entry left, but a DRAM victim
		// pulled into the write group may still have an older version in the
		// queue until the group is published.
		if found, dirty := st.transitLookupLocked(id, buf); found {
			st.mu.Unlock()
			return true, dirty, nil
		}
		e, ok := st.dir[id]
		if !ok {
			st.mu.Unlock()
			return false, false, nil
		}
		slot := e.pos % capacity
		st.mu.Unlock()
		if err := m.cfg.Dev.ReadAt(m.layout.frameBlock(slot), buf); err != nil {
			return false, false, fmt.Errorf("face: reading frame %d: %w", slot, err)
		}
		st.mu.Lock()
		st.flashReads++
		if cur, ok := st.dir[id]; ok && cur.pos == e.pos {
			st.hits++
			dirty := cur.dirty
			// Set the reference bit before releasing the stripe lock: a
			// writer recycling this slot removes the directory entry under
			// this lock first, so a bit set here can never land on a slot
			// already republished as a different page.  (A ref arriving
			// just as the replacement decision is being made may still be
			// lost, as on a real system.)
			m.refs[slot].Store(true)
			st.mu.Unlock()
			return true, dirty, nil
		}
		// The frame was replaced while we read it; resolve again.
	}
}

// transitLookupLocked serves a page from the in-transit map.  The caller
// holds the stripe lock.
func (st *dirStripe) transitLookupLocked(id page.ID, buf page.Buf) (bool, bool) {
	t, ok := st.transit[id]
	if !ok {
		return false, false
	}
	copy(buf, t.data)
	st.hits++
	return true, t.dirty
}

// StageIn offers a page evicted from the DRAM buffer to the cache,
// implementing Algorithm 1 of the paper: unconditional enqueue when fdirty,
// conditional enqueue (skip when an identical copy is cached) otherwise.
// The image is copied into the write group; see Extension.StageIn.
func (m *MVFIFO) StageIn(id page.ID, data page.Buf, dirty, fdirty bool) error {
	m.wrMu.Lock()
	defer m.wrMu.Unlock()

	if m.closed.Load() {
		return ErrClosed
	}
	m.mu.Lock()
	m.stats.StageIns++
	if dirty {
		m.stats.DirtyStageIns++
	} else {
		m.stats.CleanStageIns++
	}
	if !fdirty {
		st := m.stripe(id)
		st.mu.Lock()
		_, cached := st.dir[id]
		if !cached {
			// A second-chance survivor between its frame being recycled
			// and its re-enqueue counts as cached too: it is about to be
			// republished.
			_, cached = st.transit[id]
		}
		st.mu.Unlock()
		if cached {
			// An identical copy is already in the flash cache.
			m.mu.Unlock()
			return nil
		}
		// Not cached: enqueue.  A dirty page whose flash copy was staged
		// out must be re-enqueued so the persistent database keeps the
		// newest version; a clean page is enqueued as clean.
	}
	items := append(m.items[:0], stageItem{id: id, data: data, dirty: dirty, lsn: data.LSN()})
	m.mu.Unlock()
	//lint:allow facevet/nolockio wrMu is the single-writer serialization lock and is held across destage by design; the shared-state lock m.mu is released first
	return m.enqueue(items)
}

// stageItem is a page about to be enqueued.
type stageItem struct {
	id   page.ID
	data page.Buf
	// home is where data goes once the page's new frame is published, for
	// the items the writer path owns: its own free list for a second-chance
	// survivor, the puller's for a DRAM victim.  The caller's items are
	// lent and go nowhere.
	home  *page.FreeList
	dirty bool
	lsn   page.LSN
}

// DirtyFrames returns the number of valid dirty frames (diagnostics).
func (m *MVFIFO) DirtyFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for pos := m.front; pos < m.seq; pos++ {
		fm := &m.meta[pos%uint64(m.cfg.Frames)]
		if fm.valid && fm.dirty {
			n++
		}
	}
	return n
}
