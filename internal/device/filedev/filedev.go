// Package filedev implements the device.Dev interface over ordinary OS
// files: every block lives at a fixed byte offset of one file, reads and
// writes are positioned I/O (pread/pwrite), and durability is an explicit
// Sync (fsync) barrier instead of the simulated devices' implicit
// persistence.
//
// Unlike the simulated devices in the parent package, a file-backed device
// has no latency model: its statistics accumulate the real wall-clock time
// spent inside I/O system calls, so BusyTime and the derived utilization
// figures describe the host storage, not the paper's hardware.  The
// operation counters keep the same random/sequential classification rules
// as the simulated devices so reports stay comparable.
//
// Run operations (ReadRun/WriteRun) can be split across a bounded worker
// pool (Options.Workers); Parallelism reports the pool width so the
// elapsed-time model divides busy time the same way it does for a striped
// array.  Files are written sparsely: capacity is a logical bound checked
// on every access, and blocks never written read back as zeros, exactly
// like the lazily materialised simulated devices.
package filedev

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/reprolab/face/internal/device"
)

// ErrClosed is returned by operations on a closed device.
var ErrClosed = errors.New("filedev: device is closed")

// minParallelRun is the smallest run split across the worker pool; shorter
// runs are served by a single positioned read/write, whose syscall cost
// they would not amortise.
const minParallelRun = 8

// Options configures a file-backed device.
type Options struct {
	// Workers bounds the number of run-operation chunks the device issues
	// concurrently and is reported as the device's Parallelism (<= 0: 1).
	Workers int
	// NoFsync makes Sync a no-op.  The device still counts the sync
	// requests, so tests can assert the barrier points either way.
	NoFsync bool
}

// Device is a file-backed block device.
type Device struct {
	name      string
	path      string
	f         *os.File
	numBlocks int64
	workers   int
	fsync     bool
	// sem bounds the run-operation chunks in flight across all callers.
	sem chan struct{}

	// mu guards the counters below; it is never held across file I/O.
	mu        sync.Mutex
	stats     device.Stats
	syncs     int64
	lastRead  int64
	lastWrite int64
	closed    bool
	// syncErr makes a failed fsync sticky: the kernel may drop the dirty
	// pages after reporting the error once (fsyncgate), so a later Sync
	// that "succeeds" would vouch for writes that were silently lost.
	// Once the barrier fails, every subsequent Sync fails too.
	syncErr error
}

var (
	_ device.Dev    = (*Device)(nil)
	_ device.Syncer = (*Device)(nil)
)

// Open creates or opens the file at path as a block device of numBlocks
// blocks.  An existing file keeps its contents (that is the reopen-after-
// crash path); a fresh file starts all zeros and grows sparsely as blocks
// are written.
func Open(name, path string, numBlocks int64, opts Options) (*Device, error) {
	if numBlocks < 1 {
		return nil, fmt.Errorf("filedev: %s: capacity must be at least 1 block, got %d", name, numBlocks)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filedev: opening %s: %w", path, err)
	}
	return &Device{
		name:      name,
		path:      path,
		f:         f,
		numBlocks: numBlocks,
		workers:   workers,
		fsync:     !opts.NoFsync,
		sem:       make(chan struct{}, workers),
		lastRead:  -2,
		lastWrite: -2,
	}, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Path returns the backing file path.
func (d *Device) Path() string { return d.path }

// NumBlocks returns the device capacity in blocks.
func (d *Device) NumBlocks() int64 { return d.numBlocks }

// Parallelism returns the worker pool width.
func (d *Device) Parallelism() int { return d.workers }

// Fsync reports whether Sync performs a real fsync.
func (d *Device) Fsync() bool { return d.fsync }

// checkOpen returns ErrClosed once Close has been called.
func (d *Device) checkOpen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// readFull reads len(p) bytes at off, zero-filling past end of file so
// never-written (sparse) blocks behave like the simulated devices' lazily
// materialised ones.
func (d *Device) readFull(off int64, p []byte) error {
	n, err := d.f.ReadAt(p, off)
	if err == io.EOF || (err == nil && n == len(p)) {
		for i := n; i < len(p); i++ {
			p[i] = 0
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("filedev: reading %s at %d: %w", d.name, off, err)
	}
	return nil
}

// ReadAt reads block blk into p.
func (d *Device) ReadAt(blk int64, p []byte) error {
	if len(p) < device.BlockSize {
		return device.ErrShortBuffer
	}
	if blk < 0 || blk >= d.numBlocks {
		return fmt.Errorf("%w: read block %d of %d (%s)", device.ErrOutOfRange, blk, d.numBlocks, d.name)
	}
	if err := d.checkOpen(); err != nil {
		return err
	}
	start := time.Now()
	err := d.readFull(blk*device.BlockSize, p[:device.BlockSize])
	elapsed := time.Since(start)
	d.mu.Lock()
	seq := blk == d.lastRead+1
	d.lastRead = blk
	d.noteLocked(false, seq, 1, elapsed)
	d.mu.Unlock()
	return err
}

// WriteAt writes block blk from p.
func (d *Device) WriteAt(blk int64, p []byte) error {
	if len(p) < device.BlockSize {
		return device.ErrShortBuffer
	}
	if blk < 0 || blk >= d.numBlocks {
		return fmt.Errorf("%w: write block %d of %d (%s)", device.ErrOutOfRange, blk, d.numBlocks, d.name)
	}
	if err := d.checkOpen(); err != nil {
		return err
	}
	start := time.Now()
	_, err := d.f.WriteAt(p[:device.BlockSize], blk*device.BlockSize)
	elapsed := time.Since(start)
	d.mu.Lock()
	seq := blk == d.lastWrite+1
	d.lastWrite = blk
	d.noteLocked(true, seq, 1, elapsed)
	d.mu.Unlock()
	if err != nil {
		return fmt.Errorf("filedev: writing %s at block %d: %w", d.name, blk, err)
	}
	return nil
}

// ReadRun reads n consecutive blocks starting at blk, invoking fn for each
// block in order.  Long runs are read by the worker pool in parallel
// chunks; fn always sees the blocks sequentially.
func (d *Device) ReadRun(blk int64, n int, fn func(i int, p []byte) error) error {
	if n <= 0 {
		return nil
	}
	if blk < 0 || blk+int64(n) > d.numBlocks {
		return fmt.Errorf("%w: read run [%d,%d) of %d (%s)", device.ErrOutOfRange, blk, blk+int64(n), d.numBlocks, d.name)
	}
	if err := d.checkOpen(); err != nil {
		return err
	}
	buf := make([]byte, n*device.BlockSize)
	elapsed, err := d.runChunks(n, func(lo, hi int) error {
		return d.readFull((blk+int64(lo))*device.BlockSize, buf[lo*device.BlockSize:hi*device.BlockSize])
	})
	d.mu.Lock()
	d.lastRead = blk + int64(n) - 1
	d.noteLocked(false, true, n, elapsed)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := fn(i, buf[i*device.BlockSize:(i+1)*device.BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// WriteRun writes len(pages) consecutive blocks starting at blk.  Long
// runs are coalesced into per-chunk buffers and written by the worker pool
// in parallel.
func (d *Device) WriteRun(blk int64, pages [][]byte) error {
	n := len(pages)
	if n == 0 {
		return nil
	}
	for i, p := range pages {
		if len(p) < device.BlockSize {
			return fmt.Errorf("%w: run element %d", device.ErrShortBuffer, i)
		}
	}
	if blk < 0 || blk+int64(n) > d.numBlocks {
		return fmt.Errorf("%w: write run [%d,%d) of %d (%s)", device.ErrOutOfRange, blk, blk+int64(n), d.numBlocks, d.name)
	}
	if err := d.checkOpen(); err != nil {
		return err
	}
	elapsed, err := d.runChunks(n, func(lo, hi int) error {
		chunk := make([]byte, (hi-lo)*device.BlockSize)
		for i := lo; i < hi; i++ {
			copy(chunk[(i-lo)*device.BlockSize:], pages[i][:device.BlockSize])
		}
		if _, err := d.f.WriteAt(chunk, (blk+int64(lo))*device.BlockSize); err != nil {
			return fmt.Errorf("filedev: writing %s run at block %d: %w", d.name, blk+int64(lo), err)
		}
		return nil
	})
	d.mu.Lock()
	d.lastWrite = blk + int64(n) - 1
	d.noteLocked(true, true, n, elapsed)
	d.mu.Unlock()
	return err
}

// runChunks splits [0, n) into up to Workers contiguous chunks and runs op
// on each through the bounded pool, returning the first error and the SUM
// of the per-chunk I/O times.  The sum — not the overlapped wall elapsed —
// is what feeds Stats.Busy, matching the striped-array convention the
// elapsed-time model divides by Parallelism.
func (d *Device) runChunks(n int, op func(lo, hi int) error) (time.Duration, error) {
	if d.workers == 1 || n < minParallelRun {
		start := time.Now()
		err := op(0, n)
		return time.Since(start), err
	}
	chunks := d.workers
	if chunks > n {
		chunks = n
	}
	per := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	var busy time.Duration
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		d.sem <- struct{}{}
		wg.Add(1)
		go func(lo, hi int) {
			defer func() {
				<-d.sem
				wg.Done()
			}()
			start := time.Now()
			err := op(lo, hi)
			elapsed := time.Since(start)
			mu.Lock()
			busy += elapsed
			if err != nil && first == nil {
				first = err
			}
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	return busy, first
}

// Sync flushes all written blocks to stable storage (fsync).  With
// Options.NoFsync it only counts the request.  The engine calls it from
// the write-ahead log force, the flash metadata flush and the checkpoint
// paths, which is what makes group commit and the flash cache's
// destage-before-front-advance invariant genuinely durable on real media.
func (d *Device) Sync() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if d.syncErr != nil {
		err := d.syncErr
		// Still a barrier request: Syncs() counts them regardless of
		// outcome.
		d.syncs++
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()
	var err error
	var elapsed time.Duration
	if d.fsync {
		start := time.Now()
		err = d.f.Sync()
		elapsed = time.Since(start)
	}
	d.mu.Lock()
	d.syncs++
	d.stats.Busy += elapsed
	if err != nil {
		// Sticky: a post-failure fsync cannot retroactively cover the
		// writes the kernel may already have discarded.
		d.syncErr = fmt.Errorf("filedev: syncing %s: %w", d.name, err)
		err = d.syncErr
	}
	d.mu.Unlock()
	return err
}

// Syncs returns the number of Sync calls (durability barriers requested),
// whether or not fsync is enabled.
func (d *Device) Syncs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Stats returns a snapshot of the accumulated statistics.  Busy is real
// wall-clock time spent in I/O system calls (including fsync).
func (d *Device) Stats() device.Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats clears the statistics; file contents are untouched.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = device.Stats{}
	d.syncs = 0
	d.lastRead, d.lastWrite = -2, -2
}

// BusyTime returns the accumulated wall-clock I/O time.
func (d *Device) BusyTime() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Busy
}

// noteLocked records one command of n blocks.  Callers hold d.mu.
func (d *Device) noteLocked(write, seq bool, n int, elapsed time.Duration) {
	d.stats.Busy += elapsed
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

// LoadLogical writes the given logical block images (index = block number)
// into the file, syncs, and resets the statistics.  It is the file-backed
// equivalent of the simulated devices' content cloning, used by the
// benchmark harness to install a pre-loaded database image.
func (d *Device) LoadLogical(blocks [][]byte) error {
	if int64(len(blocks)) > d.numBlocks {
		return fmt.Errorf("filedev: %s: image of %d blocks exceeds capacity %d", d.name, len(blocks), d.numBlocks)
	}
	// Write maximal contiguous non-nil runs so the load is a few large
	// writes instead of one syscall per page.
	i := 0
	for i < len(blocks) {
		if blocks[i] == nil {
			i++
			continue
		}
		j := i
		for j < len(blocks) && blocks[j] != nil {
			j++
		}
		if err := d.WriteRun(int64(i), blocks[i:j]); err != nil {
			return err
		}
		i = j
	}
	if err := d.Sync(); err != nil {
		return err
	}
	d.ResetStats()
	return nil
}

// Close releases the backing file handle.  It deliberately does NOT sync:
// durability barriers are explicit (Sync), so a crash-simulating close
// behaves like a process kill — whatever the engine synced is durable,
// everything else is at the mercy of the OS.  Further operations return
// ErrClosed; Close is idempotent.
func (d *Device) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("filedev: closing %s: %w", d.name, err)
	}
	return nil
}
