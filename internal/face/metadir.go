package face

import (
	"encoding/binary"
	"fmt"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// metaEntrySize is the on-flash size of one metadata entry: page id (8),
// pageLSN (8), flags (1), padding (7) — 24 bytes, as in the paper.
const metaEntrySize = 24

// superMagic identifies an initialised FaCE superblock.
const superMagic = 0xFACE5B10

// layout describes how the flash device is partitioned between the
// superblock, the persistent metadata region and the data frames.
//
//	block 0:                      superblock
//	blocks [1, 1+metaBlocks):     metadata segment slots
//	blocks [1+metaBlocks, ...):   data frames
type layout struct {
	frames       int64
	segEntries   int
	metaBlocks   int64
	segSlots     int
	blocksPerSeg int64
}

// computeLayout partitions the device for a cache of frames data frames.
// It is also where the metadata segment size is settled, for the cache
// manager and for everyone sizing a device alike: 0 means
// DefaultSegmentEntries, and a segment never holds more entries than the
// cache has frames.  A larger one would be flushed less than once per lap of
// the queue, and recovery, which rescans at most one lap of frames past the
// last flush, would restore entries whose frames have since been
// overwritten by other pages.
func computeLayout(frames, segEntries int) layout {
	if segEntries <= 0 {
		segEntries = DefaultSegmentEntries
	}
	if segEntries > frames && frames > 0 {
		segEntries = frames
	}
	blocksPerSeg := int64((segEntries*metaEntrySize + device.BlockSize - 1) / device.BlockSize)
	segSlots := (frames+segEntries-1)/segEntries + 2
	return layout{
		frames:       int64(frames),
		segEntries:   segEntries,
		metaBlocks:   int64(segSlots) * blocksPerSeg,
		segSlots:     segSlots,
		blocksPerSeg: blocksPerSeg,
	}
}

func (l layout) totalBlocks() int64 { return 1 + l.metaBlocks + l.frames }

// frameBlock returns the device block of data frame slot.
func (l layout) frameBlock(slot uint64) int64 { return 1 + l.metaBlocks + int64(slot) }

// segBlock returns the first device block of metadata segment slot idx.
func (l layout) segBlock(idx int) int64 { return 1 + int64(idx)*l.blocksPerSeg }

// metaEntry is one persistent metadata directory entry (Section 4.1).
type metaEntry struct {
	id    page.ID
	lsn   page.LSN
	dirty bool
}

// metaDirectory manages the persistent metadata directory: entries are
// collected in memory per segment and written to flash sequentially, in
// the same chronological order as the data pages they describe.
type metaDirectory struct {
	dev    device.Dev
	layout layout

	// cur holds the entries of segments that are not yet complete, keyed
	// by absolute queue position.
	cur map[uint64]metaEntry
	// persisted is the position up to which entries are durable on flash.
	persisted uint64
	// preSync, when non-nil, is the data device's durability barrier,
	// called before a flush persists an advanced front pointer: the front
	// must never become durable past a destaged page whose disk write is
	// still volatile, or a crash would lose the page's only current copy.
	// syncedFront is the largest front already persisted under that
	// barrier; flushes that do not advance it skip the sync.
	preSync     func() error
	syncedFront uint64

	// seg and super are the images a flush writes a segment and the
	// superblock from, and segBlocks the segment's blocks as WriteRun wants
	// them: writer-path scratch like the cache manager's staging run.
	seg       []byte
	segBlocks [][]byte
	super     []byte
}

func newMetaDirectory(dev device.Dev, lay layout) *metaDirectory {
	d := &metaDirectory{
		dev:    dev,
		layout: lay,
		cur:    make(map[uint64]metaEntry, lay.segEntries),
		seg:    make([]byte, lay.blocksPerSeg*device.BlockSize),
		super:  make([]byte, device.BlockSize),
	}
	for i := int64(0); i < lay.blocksPerSeg; i++ {
		d.segBlocks = append(d.segBlocks, d.seg[i*device.BlockSize:(i+1)*device.BlockSize])
	}
	return d
}

// appendEntry records the metadata of the page enqueued at position pos.
// When the entry completes a segment, the segment is flushed to flash.  It
// returns the number of segment flushes performed.
func (d *metaDirectory) appendEntry(e metaEntry, pos, front uint64) (int, error) {
	d.cur[pos] = e
	if (pos+1)%uint64(d.layout.segEntries) == 0 {
		return d.flush(pos+1, front)
	}
	return 0, nil
}

// flush writes all entries in [persisted, seq) to their segment slots,
// then persists the queue pointers in the superblock.  A partially filled
// segment may be written (e.g. at a database checkpoint); its remaining
// entries are rewritten when the segment completes.  It returns the number
// of segment flushes performed.
func (d *metaDirectory) flush(seq, front uint64) (int, error) {
	// Destaged disk writes become durable before the front that assumes
	// them does (no-op on simulated devices).  A flush that does not
	// advance the persistent front vouches for no new destages, so the
	// cache-filling phase pays no data-file fsync per group write.
	if d.preSync != nil && front > d.syncedFront {
		if err := d.preSync(); err != nil {
			return 0, fmt.Errorf("face: syncing disk before metadata flush: %w", err)
		}
		d.syncedFront = front
	}
	if seq <= d.persisted {
		// Nothing new; still persist the pointers so front advances are
		// not lost across a crash.
		return 0, d.writeSuperblock(front, d.persisted)
	}
	flushes := 0
	segEntries := uint64(d.layout.segEntries)
	firstSeg := d.persisted / segEntries
	lastSeg := (seq - 1) / segEntries
	for seg := firstSeg; seg <= lastSeg; seg++ {
		segStart := seg * segEntries
		segEnd := segStart + segEntries
		if segEnd > seq {
			segEnd = seq
		}
		img := d.seg
		clear(img)
		for pos := segStart; pos < segEnd; pos++ {
			e, ok := d.cur[pos]
			if !ok {
				continue
			}
			off := int(pos-segStart) * metaEntrySize
			binary.LittleEndian.PutUint64(img[off:], uint64(e.id))
			binary.LittleEndian.PutUint64(img[off+8:], uint64(e.lsn))
			if e.dirty {
				img[off+16] = 1
			}
		}
		slot := int(seg % uint64(d.layout.segSlots))
		if err := d.dev.WriteRun(d.layout.segBlock(slot), d.segBlocks); err != nil {
			return flushes, fmt.Errorf("face: writing metadata segment %d: %w", seg, err)
		}
		flushes++
		// Entries of completed segments are no longer needed in memory.
		if segEnd == segStart+segEntries {
			for pos := segStart; pos < segEnd; pos++ {
				delete(d.cur, pos)
			}
		}
	}
	// The segments become durable before the superblock that vouches for
	// them: a single barrier after both writes could not order them (the
	// OS may write back block 0 first), and a durable superblock pointing
	// at unwritten segment slots would make recovery decode the slots'
	// previous-generation entries as current page mappings.
	if flushes > 0 {
		if err := device.Sync(d.dev); err != nil {
			return flushes, fmt.Errorf("face: syncing metadata segments: %w", err)
		}
	}
	d.persisted = seq
	return flushes, d.writeSuperblock(front, seq)
}

// writeSuperblock persists the queue pointers and cache geometry.
func (d *metaDirectory) writeSuperblock(front, persisted uint64) error {
	blk := d.super
	binary.LittleEndian.PutUint32(blk[0:], superMagic)
	binary.LittleEndian.PutUint64(blk[4:], uint64(d.layout.frames))
	binary.LittleEndian.PutUint32(blk[12:], uint32(d.layout.segEntries))
	binary.LittleEndian.PutUint64(blk[16:], front)
	binary.LittleEndian.PutUint64(blk[24:], persisted)
	if err := d.dev.WriteAt(0, blk); err != nil {
		return fmt.Errorf("face: writing superblock: %w", err)
	}
	// The pointers themselves must be durable too; the segments they
	// reference were synced before this write (see flush).
	if err := device.Sync(d.dev); err != nil {
		return fmt.Errorf("face: syncing metadata superblock: %w", err)
	}
	return nil
}

// load reads the superblock and every persisted metadata entry that still
// falls inside the queue window.  It returns the persistent front pointer,
// the persisted position and the decoded entries keyed by position.
func (d *metaDirectory) load() (front, persisted uint64, entries map[uint64]metaEntry, err error) {
	blk := make([]byte, device.BlockSize)
	if err := d.dev.ReadAt(0, blk); err != nil {
		return 0, 0, nil, fmt.Errorf("face: reading superblock: %w", err)
	}
	if binary.LittleEndian.Uint32(blk[0:]) != superMagic {
		// No superblock: the cache crashed before any metadata flush.
		// Recovery proceeds with an empty directory and relies on the
		// enqueue-stamp scan to rediscover recently written frames.
		d.persisted = 0
		d.cur = make(map[uint64]metaEntry, d.layout.segEntries)
		return 0, 0, map[uint64]metaEntry{}, nil
	}
	frames := int64(binary.LittleEndian.Uint64(blk[4:]))
	segEntries := int(binary.LittleEndian.Uint32(blk[12:]))
	if frames != d.layout.frames || segEntries != d.layout.segEntries {
		return 0, 0, nil, fmt.Errorf("face: superblock geometry mismatch: device has %d frames / %d entries per segment, cache configured with %d / %d",
			frames, segEntries, d.layout.frames, d.layout.segEntries)
	}
	front = binary.LittleEndian.Uint64(blk[16:])
	persisted = binary.LittleEndian.Uint64(blk[24:])
	d.persisted = persisted
	// The recovered front was durable, so the disk writes below it were
	// synced by whoever persisted it.
	d.syncedFront = front
	d.cur = make(map[uint64]metaEntry, d.layout.segEntries)

	entries = make(map[uint64]metaEntry)
	if persisted == 0 || persisted <= front {
		return front, persisted, entries, nil
	}
	// Read the whole metadata region sequentially and decode the entries
	// belonging to [front, persisted).
	region := make([]byte, d.layout.metaBlocks*device.BlockSize)
	if err := d.dev.ReadRun(1, int(d.layout.metaBlocks), func(i int, p []byte) error {
		copy(region[i*device.BlockSize:], p)
		return nil
	}); err != nil {
		return 0, 0, nil, fmt.Errorf("face: reading metadata region: %w", err)
	}
	segEntries64 := uint64(d.layout.segEntries)
	for pos := front; pos < persisted; pos++ {
		seg := pos / segEntries64
		slot := int(seg % uint64(d.layout.segSlots))
		off := int64(slot)*d.layout.blocksPerSeg*device.BlockSize + int64(pos%segEntries64)*metaEntrySize
		id := page.ID(binary.LittleEndian.Uint64(region[off:]))
		if id == page.InvalidID {
			continue
		}
		e := metaEntry{
			id:    id,
			lsn:   page.LSN(binary.LittleEndian.Uint64(region[off+8:])),
			dirty: region[off+16] == 1,
		}
		entries[pos] = e
		// Entries of the current (incomplete) segment must stay in memory:
		// when that segment is eventually flushed it is rewritten in full
		// from the in-memory copy.
		if pos >= (persisted/segEntries64)*segEntries64 {
			d.cur[pos] = e
		}
	}
	return front, persisted, entries, nil
}

// restoreEntry re-registers an entry rediscovered by the recovery scan so
// it is included in the next metadata flush.
func (d *metaDirectory) restoreEntry(pos uint64, e metaEntry) {
	d.cur[pos] = e
}
