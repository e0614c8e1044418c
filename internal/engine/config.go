// Package engine ties the substrates together into a small transactional
// storage engine: DRAM buffer pool, optional flash cache extension,
// write-ahead log, checkpointer and restart recovery.  It plays the role
// PostgreSQL plays in the paper: the host system whose buffer manager,
// checkpoint process and recovery daemon FaCE extends.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/device/filedev"
	"github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/obs"
)

// CachePolicy names the flash cache manager: one of the paper's schemes
// that internal/face builds by name (face.Policies lists them).
type CachePolicy string

// Built-in cache policies.
const (
	// PolicyNone disables the flash cache (HDD-only or SSD-only setups).
	PolicyNone CachePolicy = "none"
	// PolicyFaCE is the basic mvFIFO FaCE cache.
	PolicyFaCE CachePolicy = "face"
	// PolicyFaCEGR is FaCE with Group Replacement.
	PolicyFaCEGR CachePolicy = "face+gr"
	// PolicyFaCEGSC is FaCE with Group Second Chance.
	PolicyFaCEGSC CachePolicy = "face+gsc"
	// PolicyLC is the Lazy Cleaning (LRU write-back) baseline.
	PolicyLC CachePolicy = "lc"
	// PolicyWriteThrough is the TAC-style write-through baseline.
	PolicyWriteThrough CachePolicy = "wt"
)

// UsesFlash reports whether the policy needs a flash device.
func (p CachePolicy) UsesFlash() bool { return face.PolicyUsesFlash(p.String()) }

// String returns the policy name.
func (p CachePolicy) String() string {
	if p == "" {
		return string(PolicyNone)
	}
	return string(p)
}

// ParsePolicy converts a string (as used by the CLI and the public options
// API) into a CachePolicy, rejecting names internal/face does not build.
func ParsePolicy(s string) (CachePolicy, error) {
	if s == "" {
		return PolicyNone, nil
	}
	if !face.PolicyRegistered(s) {
		return "", fmt.Errorf("engine: unknown cache policy %q (registered: %s)",
			s, strings.Join(face.Policies(), ", "))
	}
	return CachePolicy(s), nil
}

// Errors returned by the engine.
var (
	ErrClosed   = errors.New("engine: database is closed")
	ErrCrashed  = errors.New("engine: database has crashed; reopen it to recover")
	ErrNoDevice = errors.New("engine: missing required device")
	ErrTxDone   = errors.New("engine: transaction already finished")
	ErrConflict = errors.New("engine: conflicting access: write in a read-only transaction")
)

// ErrDeadlock is returned by transactions refused by the page lock
// manager because waiting would close a cycle.  The transaction has been
// rolled back; retrying it is safe and expected.
var ErrDeadlock = lock.ErrDeadlock

// Config describes a database instance.
type Config struct {
	// DataDev holds the database pages (a disk array in most experiments,
	// a flash SSD in the SSD-only configuration).
	DataDev device.Dev
	// LogDev holds the write-ahead log.
	LogDev device.Dev
	// FlashDev holds the flash cache; required when Policy uses flash.
	FlashDev device.Dev

	// Dir, when non-empty, opens the database on persistent file-backed
	// devices inside the directory (data.db, wal.log, flash.cache) instead
	// of caller-supplied simulated devices; DataDev/LogDev/FlashDev must
	// then be nil.  Reopening a directory whose data file already exists
	// automatically runs crash recovery, so kill-and-reopen is the normal
	// restart path.  The engine owns the files and closes them on
	// Close/Crash.
	Dir string
	// NoFsync disables the fsync durability barrier on file-backed
	// devices: faster, but a host crash can lose acknowledged commits (a
	// process crash cannot).  Ignored without Dir.
	NoFsync bool

	// BufferPages is the DRAM buffer pool capacity in pages: one LRU
	// order over all of them, whatever the host's core count.
	BufferPages int

	// Policy selects the flash cache scheme.
	Policy CachePolicy
	// FlashFrames is the flash cache capacity in page frames.
	FlashFrames int
	// GroupSize overrides the replacement batch size for the FaCE group
	// optimizations (default face.DefaultGroupSize).
	GroupSize int
	// SegmentEntries overrides the persistent metadata segment size.
	SegmentEntries int

	// MaxWriters caps the number of concurrently admitted Update
	// transactions (0 = unlimited; 1 serialises writers).  A bound keeps
	// lock contention and DRAM pin pressure proportionate to small buffer
	// pools.
	MaxWriters int

	// CheckpointEvery triggers a database checkpoint whenever this much
	// simulated time has passed since the previous one.  Zero disables
	// periodic checkpoints.
	CheckpointEvery time.Duration

	// Obs, when non-nil, is the metrics registry the engine registers
	// its histograms and counters into, letting an embedder (faced)
	// share one registry across the engine and the server.  Nil
	// allocates a private registry.
	Obs *obs.Registry
	// SlowTxThreshold pins the span trace of every committed write
	// transaction whose wall-clock latency reaches it (trace.PinSlow), so
	// the tracer's journal keeps its per-phase spans.  Zero pins none;
	// tracing itself stays on.
	SlowTxThreshold time.Duration

	// Recover runs crash recovery during Open.  Set it when reopening a
	// database after Crash; leave it false for a freshly initialised set
	// of devices.
	Recover bool
}

// DefaultFileWorkers is the data file's positioned-I/O worker pool width
// under Dir, reported as the device's Parallelism.
const DefaultFileWorkers = 4

// openFileDevices opens (creating if necessary) the file-backed device set
// of cfg.Dir and installs it into the device fields.  The returned set's
// Existed flag tells the caller whether the directory held an initialised
// database, in which case it runs crash recovery.
func (c *Config) openFileDevices() (*filedev.Set, error) {
	if c.DataDev != nil || c.LogDev != nil || c.FlashDev != nil {
		return nil, fmt.Errorf("engine: Dir and explicit devices are mutually exclusive")
	}
	var flashBlocks int64
	if c.Policy.UsesFlash() {
		// A WithDir caller supplies no devices, so the flash file must be
		// sizeable from the configuration; point them at the missing
		// option rather than failing later with a confusing ErrNoDevice.
		if c.FlashFrames < 1 {
			return nil, fmt.Errorf("engine: policy %s on file-backed devices needs FlashFrames to size %s", c.Policy, filedev.FlashFile)
		}
		flashBlocks = face.FlashDeviceBlocks(c.FlashFrames, c.SegmentEntries) + face.FlashDeviceSlack
	}
	set, err := filedev.OpenSet(c.Dir, filedev.SetConfig{
		FlashBlocks: flashBlocks,
		Workers:     DefaultFileWorkers,
		NoFsync:     c.NoFsync,
	})
	if err != nil {
		return nil, err
	}
	// Under FaCE the flash cache is part of the persistent database: after
	// a checkpoint the only durable copy of a page may live in
	// flash.cache.  Reopening with a policy that ignores the flash file
	// would silently serve stale pre-checkpoint images from data.db, so
	// an existing non-empty cache file demands a flash policy.
	if set.Existed && !c.Policy.UsesFlash() {
		if fi, statErr := os.Stat(filepath.Join(c.Dir, filedev.FlashFile)); statErr == nil && fi.Size() > 0 {
			set.Close()
			return nil, fmt.Errorf("engine: %s holds a non-empty %s but policy %s does not use flash; reopen with the original flash policy (or delete the cache file only if the database was closed cleanly)",
				c.Dir, filedev.FlashFile, c.Policy)
		}
	}
	c.DataDev = set.Data
	c.LogDev = set.Log
	if set.Flash != nil {
		c.FlashDev = set.Flash
	}
	return set, nil
}

func (c *Config) validate() error {
	if c.DataDev == nil {
		return fmt.Errorf("%w: DataDev", ErrNoDevice)
	}
	if c.LogDev == nil {
		return fmt.Errorf("%w: LogDev", ErrNoDevice)
	}
	if c.BufferPages < 1 {
		return fmt.Errorf("engine: BufferPages must be at least 1")
	}
	if _, err := ParsePolicy(string(c.Policy)); err != nil {
		return err
	}
	if c.MaxWriters < 0 {
		return fmt.Errorf("engine: MaxWriters must not be negative")
	}
	if c.Policy.UsesFlash() {
		if c.FlashDev == nil {
			return fmt.Errorf("%w: FlashDev (policy %s)", ErrNoDevice, c.Policy)
		}
		if c.FlashFrames < 1 {
			return fmt.Errorf("engine: FlashFrames must be at least 1 for policy %s", c.Policy)
		}
	}
	return nil
}

// directoryStripes sizes the flash cache directory's lock stripes: the
// smallest power of two at or above GOMAXPROCS, capped at 64, so concurrent
// lookups of different pages rarely share a stripe lock.  The stripe count
// changes no replacement decision (face.TestStripedLookupEquivalence).
func directoryStripes() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// buildCache constructs the flash cache manager for the configured policy,
// writing to and syncing the data device through
// diskWrite and diskSync; policies without a flash cache yield (nil, nil).
func (c *Config) buildCache(diskWrite face.DiskWriteFunc, diskSync func() error, pull face.PullFunc) (face.Extension, error) {
	return face.NewPolicy(c.Policy.String(), face.PolicyParams{
		Dev:            c.FlashDev,
		Frames:         c.FlashFrames,
		GroupSize:      c.GroupSize,
		SegmentEntries: c.SegmentEntries,
		Stripes:        directoryStripes(),
		DiskWrite:      diskWrite,
		DiskSync:       diskSync,
		Pull:           pull,
	})
}
