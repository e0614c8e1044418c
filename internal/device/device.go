package device

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Common errors returned by devices.
var (
	// ErrOutOfRange indicates a block number outside the device capacity.
	ErrOutOfRange = errors.New("device: block out of range")
	// ErrShortBuffer indicates a caller buffer smaller than one block.
	ErrShortBuffer = errors.New("device: buffer smaller than block size")
)

// Dev is the interface shared by single devices and striped arrays.
//
// ReadAt/WriteAt operate on one block.  ReadRun/WriteRun operate on a
// contiguous ascending run of blocks and are charged at sequential rates,
// which is how the flash cache issues its group (batch) I/O.
type Dev interface {
	// ReadAt reads block blk into p (len(p) >= BlockSize).
	ReadAt(blk int64, p []byte) error
	// WriteAt writes block blk from p (len(p) >= BlockSize).
	WriteAt(blk int64, p []byte) error
	// ReadRun reads n consecutive blocks starting at blk, invoking fn for
	// each block with a buffer that is only valid during the call and that
	// fn must not write to: it may be the device's own storage.
	ReadRun(blk int64, n int, fn func(i int, p []byte) error) error
	// WriteRun writes len(pages) consecutive blocks starting at blk.
	WriteRun(blk int64, pages [][]byte) error
	// NumBlocks is the device capacity in blocks.
	NumBlocks() int64
	// Stats returns a snapshot of the accumulated statistics.
	Stats() Stats
	// ResetStats clears the accumulated statistics (content is kept).
	ResetStats()
	// BusyTime returns the total accumulated service time.
	BusyTime() time.Duration
	// Parallelism is the number of operations the device can serve
	// concurrently (1 for a single device, #disks for a striped array).
	Parallelism() int
	// Name identifies the device for reports.
	Name() string
}

// Syncer is implemented by devices with an explicit durability barrier
// (file-backed devices expose fsync this way).  The simulated in-memory
// devices are always "durable" and do not implement it.
type Syncer interface {
	// Sync blocks until every completed write has reached stable storage.
	Sync() error
}

// Sync flushes dev to stable storage when it supports a durability
// barrier and is a no-op otherwise (including for a nil device).  The
// write-ahead log force, flash metadata flush and checkpoint paths call it
// so their ordering guarantees hold on real media without the simulated
// devices paying for a method they do not need.
func Sync(dev Dev) error {
	if s, ok := dev.(Syncer); ok && s != nil {
		return s.Sync()
	}
	return nil
}

// Stats accumulates operation counts and simulated busy time for a device.
type Stats struct {
	RandReads  int64
	RandWrites int64
	SeqReads   int64
	SeqWrites  int64
	// Busy is the total simulated service time of all operations.
	Busy time.Duration
}

// Reads returns the total number of block reads.
func (s Stats) Reads() int64 { return s.RandReads + s.SeqReads }

// Writes returns the total number of block writes.
func (s Stats) Writes() int64 { return s.RandWrites + s.SeqWrites }

// Ops returns the total number of block operations.
func (s Stats) Ops() int64 { return s.Reads() + s.Writes() }

// Sub returns the difference s - prior, field by field.  It is used to
// measure the I/O performed during a bounded phase (e.g. recovery).
func (s Stats) Sub(prior Stats) Stats {
	return Stats{
		RandReads:  s.RandReads - prior.RandReads,
		RandWrites: s.RandWrites - prior.RandWrites,
		SeqReads:   s.SeqReads - prior.SeqReads,
		SeqWrites:  s.SeqWrites - prior.SeqWrites,
		Busy:       s.Busy - prior.Busy,
	}
}

// Add returns the sum of s and other, field by field.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		RandReads:  s.RandReads + other.RandReads,
		RandWrites: s.RandWrites + other.RandWrites,
		SeqReads:   s.SeqReads + other.SeqReads,
		SeqWrites:  s.SeqWrites + other.SeqWrites,
		Busy:       s.Busy + other.Busy,
	}
}

// String summarises the statistics.
func (s Stats) String() string {
	return fmt.Sprintf("rr=%d rw=%d sr=%d sw=%d busy=%v",
		s.RandReads, s.RandWrites, s.SeqReads, s.SeqWrites, s.Busy)
}

// Device is a single simulated block device.  Contents are held in memory
// (in extents allocated lazily) so the data written by the engine, the
// flash cache and the write-ahead log are real and survive a simulated
// crash of the volatile layers.
//
// Sequentiality is detected automatically: an operation is sequential when
// its block number immediately follows the previous operation of the same
// kind (read or write).  Run operations (ReadRun/WriteRun) are always
// charged at sequential rates, modelling large batched I/O that modern
// SSDs execute with full internal parallelism.
type Device struct {
	mu      sync.Mutex
	name    string
	profile Profile
	// numBlocks is the capacity.  extents holds the contents, extentBlocks
	// blocks to a slab that is allocated by the first write into it: no
	// pointer per block for the collector to trace, and no allocation per
	// block written.  A missing extent reads as zeroes, like the blocks of
	// an allocated one that were never written.
	numBlocks int64
	extents   [][]byte
	stats     Stats

	lastRead  int64
	lastWrite int64
}

// extentBlocks is the number of blocks in one extent (1 MiB): small enough
// that a device written here and there stays cheap, large enough that the
// table over a million-block log disk is a few thousand entries.
const extentBlocks = 256

// zeroBlock is what a never-written block reads as.
var zeroBlock [BlockSize]byte

// New creates a device with the given profile and capacity in blocks.
func New(name string, profile Profile, numBlocks int64) *Device {
	d := &Device{
		name:      name,
		profile:   profile,
		lastRead:  -2,
		lastWrite: -2,
	}
	d.resizeLocked(numBlocks)
	return d
}

// resizeLocked empties the device and sets its capacity.
func (d *Device) resizeLocked(numBlocks int64) {
	if numBlocks < 0 {
		numBlocks = 0
	}
	d.numBlocks = numBlocks
	d.extents = make([][]byte, (numBlocks+extentBlocks-1)/extentBlocks)
}

// blockLocked returns the stored content of block blk, or nil if nothing
// was ever written to its extent.  The block must be in range.
func (d *Device) blockLocked(blk int64) []byte {
	return blockOf(d.extents[blk/extentBlocks], blk)
}

// blockOf returns block blk's part of its extent, or nil without one.
func blockOf(ext []byte, blk int64) []byte {
	if ext == nil {
		return nil
	}
	off := (blk % extentBlocks) * BlockSize
	return ext[off : off+BlockSize : off+BlockSize]
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Profile returns the device's latency profile.
func (d *Device) Profile() Profile { return d.profile }

// NumBlocks returns the device capacity in blocks.
func (d *Device) NumBlocks() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numBlocks
}

// Parallelism of a single device is 1.
func (d *Device) Parallelism() int { return 1 }

// ReadAt reads block blk into p.
func (d *Device) ReadAt(blk int64, p []byte) error {
	if len(p) < BlockSize {
		return ErrShortBuffer
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if blk < 0 || blk >= d.numBlocks {
		return fmt.Errorf("%w: read block %d of %d (%s)", ErrOutOfRange, blk, d.numBlocks, d.name)
	}
	seq := blk == d.lastRead+1
	d.lastRead = blk
	d.charge(false, seq, 1)
	d.loadLocked(blk, p)
	return nil
}

// WriteAt writes block blk from p.
func (d *Device) WriteAt(blk int64, p []byte) error {
	if len(p) < BlockSize {
		return ErrShortBuffer
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if blk < 0 || blk >= d.numBlocks {
		return fmt.Errorf("%w: write block %d of %d (%s)", ErrOutOfRange, blk, d.numBlocks, d.name)
	}
	seq := blk == d.lastWrite+1
	d.lastWrite = blk
	d.charge(true, seq, 1)
	d.storeLocked(blk, p)
	return nil
}

// ReadRun reads n consecutive blocks starting at blk.  The whole run is
// charged at the sequential read rate.
func (d *Device) ReadRun(blk int64, n int, fn func(i int, p []byte) error) error {
	if n <= 0 {
		return nil
	}
	d.mu.Lock()
	if blk < 0 || blk+int64(n) > d.numBlocks {
		d.mu.Unlock()
		return fmt.Errorf("%w: read run [%d,%d) of %d (%s)", ErrOutOfRange, blk, blk+int64(n), d.numBlocks, d.name)
	}
	d.lastRead = blk + int64(n) - 1
	d.charge(false, true, n)
	d.mu.Unlock()

	// fn sees the stored blocks themselves, an extent at a time, and runs
	// without the lock.
	for i := 0; i < n; {
		first := blk + int64(i)
		d.mu.Lock()
		ext := d.extents[first/extentBlocks]
		d.mu.Unlock()
		for ; i < n && (blk+int64(i))/extentBlocks == first/extentBlocks; i++ {
			p := blockOf(ext, blk+int64(i))
			if p == nil {
				p = zeroBlock[:]
			}
			if err := fn(i, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteRun writes len(pages) consecutive blocks starting at blk, charged at
// the sequential write rate.
func (d *Device) WriteRun(blk int64, pages [][]byte) error {
	n := len(pages)
	if n == 0 {
		return nil
	}
	for i, p := range pages {
		if len(p) < BlockSize {
			return fmt.Errorf("%w: run element %d", ErrShortBuffer, i)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if blk < 0 || blk+int64(n) > d.numBlocks {
		return fmt.Errorf("%w: write run [%d,%d) of %d (%s)", ErrOutOfRange, blk, blk+int64(n), d.numBlocks, d.name)
	}
	d.lastWrite = blk + int64(n) - 1
	d.charge(true, true, n)
	for i, p := range pages {
		d.storeLocked(blk+int64(i), p)
	}
	return nil
}

// Stats returns a snapshot of the accumulated statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats clears the statistics; block contents are untouched.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// BusyTime returns the accumulated service time of all operations.
func (d *Device) BusyTime() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Busy
}

// SnapshotContent returns a deep copy of the device's block contents.  It
// is used by the benchmark harness to clone a freshly loaded database so
// each experiment configuration starts from the same on-disk state.
//
// A block that holds only zeroes is left nil, as one never written is: the
// two read the same.
func (d *Device) SnapshotContent() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([][]byte, d.numBlocks)
	for i := range out {
		if b := d.blockLocked(int64(i)); b != nil && !bytes.Equal(b, zeroBlock[:]) {
			out[i] = bytes.Clone(b)
		}
	}
	return out
}

// RestoreContent replaces the device contents with a snapshot previously
// obtained from SnapshotContent.  Statistics and sequentiality tracking are
// reset.  The device capacity becomes len(snapshot) blocks.
func (d *Device) RestoreContent(snapshot [][]byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resizeLocked(int64(len(snapshot)))
	for i, b := range snapshot {
		if b != nil {
			d.storeLocked(int64(i), b)
		}
	}
	d.stats = Stats{}
	d.lastRead, d.lastWrite = -2, -2
}

// charge adds the service time of one command transferring n blocks of the
// given kind to the statistics.  Callers must hold d.mu.
//
// Random single-block commands cost 1/IOPS (which already includes all
// per-command overhead).  Sequential commands cost the profile's
// CmdOverhead once plus the bandwidth-derived per-block transfer time, so a
// run of n blocks is cheaper than n individual sequential commands.
func (d *Device) charge(write, seq bool, n int) {
	var t time.Duration
	if seq {
		t = d.profile.CmdOverhead + d.profile.ServiceTime(write, true)*time.Duration(n)
	} else {
		t = d.profile.ServiceTime(write, false) * time.Duration(n)
	}
	d.stats.Busy += t
	switch {
	case write && seq:
		d.stats.SeqWrites += int64(n)
	case write:
		d.stats.RandWrites += int64(n)
	case seq:
		d.stats.SeqReads += int64(n)
	default:
		d.stats.RandReads += int64(n)
	}
}

// storeLocked copies p into block blk, allocating the block's extent (the
// device's last one may be short) on the first write into it.
func (d *Device) storeLocked(blk int64, p []byte) {
	if d.extents[blk/extentBlocks] == nil {
		first := blk / extentBlocks * extentBlocks
		d.extents[blk/extentBlocks] = make([]byte, min(extentBlocks, d.numBlocks-first)*BlockSize)
	}
	copy(d.blockLocked(blk), p)
}

// loadLocked copies block blk into p.
func (d *Device) loadLocked(blk int64, p []byte) {
	src := d.blockLocked(blk)
	if src == nil {
		src = zeroBlock[:]
	}
	copy(p[:BlockSize], src)
}

// LoadLogical replaces the device contents with the given logical block
// images (index = block number) without charging any simulated I/O.  It is
// used by the benchmark harness to clone a pre-loaded database image into
// a fresh device.  Statistics are reset.
func (d *Device) LoadLogical(blocks [][]byte) {
	d.RestoreContent(blocks)
}
