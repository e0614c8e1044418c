package main

import (
	"errors"
	"sort"
	"sync"

	"github.com/reprolab/face/internal/device"
)

// errPowerOff is what a losedev returns once its power has been cut.
var errPowerOff = errors.New("losedev: power is off")

// losedev keeps every write since the last Sync volatile, the way a drive
// or an operating-system cache without a flush does.  Killing a process
// leaves the OS cache intact, so the durability phase cuts power itself:
// PowerOff discards the unsynced writes and fails everything after it, and
// the files underneath then hold exactly the bytes that were flushed.
type losedev struct {
	device.Dev
	sync device.Syncer

	mu      sync.Mutex
	pending map[int64][]byte
	off     bool
}

func newLosedev(inner interface {
	device.Dev
	device.Syncer
}) *losedev {
	return &losedev{Dev: inner, sync: inner, pending: make(map[int64][]byte)}
}

func (d *losedev) ReadAt(blk int64, p []byte) error {
	if len(p) < device.BlockSize {
		return device.ErrShortBuffer
	}
	d.mu.Lock()
	if d.off {
		d.mu.Unlock()
		return errPowerOff
	}
	if b, ok := d.pending[blk]; ok {
		copy(p, b)
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	return d.Dev.ReadAt(blk, p)
}

func (d *losedev) WriteAt(blk int64, p []byte) error {
	if len(p) < device.BlockSize {
		return device.ErrShortBuffer
	}
	if blk < 0 || blk >= d.NumBlocks() {
		return device.ErrOutOfRange
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.off {
		return errPowerOff
	}
	d.pending[blk] = append([]byte(nil), p[:device.BlockSize]...)
	return nil
}

func (d *losedev) ReadRun(blk int64, n int, fn func(i int, p []byte) error) error {
	buf := make([]byte, device.BlockSize)
	for i := 0; i < n; i++ {
		if err := d.ReadAt(blk+int64(i), buf); err != nil {
			return err
		}
		if err := fn(i, buf); err != nil {
			return err
		}
	}
	return nil
}

func (d *losedev) WriteRun(blk int64, pages [][]byte) error {
	for i, p := range pages {
		if err := d.WriteAt(blk+int64(i), p); err != nil {
			return err
		}
	}
	return nil
}

// Sync writes the volatile blocks through in block order and flushes the
// device underneath.
func (d *losedev) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.off {
		return errPowerOff
	}
	blks := make([]int64, 0, len(d.pending))
	for blk := range d.pending {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	for _, blk := range blks {
		if err := d.Dev.WriteAt(blk, d.pending[blk]); err != nil {
			return err
		}
	}
	d.pending = make(map[int64][]byte)
	return d.sync.Sync()
}

// PowerOff drops the writes not yet synced and returns how many there were.
func (d *losedev) PowerOff() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.pending)
	d.pending = nil
	d.off = true
	return n
}
