package face

import (
	"fmt"
	"time"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/obs"
)

// DefaultBufferPages is the DRAM buffer pool capacity Open uses when
// WithBufferPages is not given.
const DefaultBufferPages = 256

// Option configures a database being opened.  Options are applied in
// order; later options override earlier ones.  The engine configuration
// they build is an internal detail of the package.
type Option func(*engine.Config) error

// WithDevices sets the data device (database pages) and the log device
// (write-ahead log).  Both are required.
func WithDevices(data, log Dev) Option {
	return func(c *engine.Config) error {
		c.DataDev = data
		c.LogDev = log
		return nil
	}
}

// WithDir opens the database on persistent file-backed devices inside the
// directory (created when missing): data.db holds the database pages,
// wal.log the write-ahead log and flash.cache the flash cache when the
// policy uses one.  It replaces WithDevices/WithFlashDevice; combining
// them fails at Open.
//
// Unlike the simulated devices, the files have real latency and a real
// fsync: commit-time log forces, the flash cache's
// destage-before-front-advance invariant and checkpoints all call Sync()
// on the underlying files, so acknowledged commits survive a crash of the
// host, not just of the process.  A commit force is one block write and
// one fsync: full log blocks are written in place once, and the partial
// tail block alternates between two checksummed entries at the end of
// wal.log, so a torn 4 KiB write on hardware without power-loss protection
// can only hit bytes nobody was told are durable and is repaired at the
// next open — see the README's Logging section.  Reopening a
// directory whose data file already exists automatically runs restart
// recovery — kill-and-reopen is the normal restart path and needs no
// WithRecovery.
//
// On Unix-like systems the directory is guarded by an exclusive flock for
// the database's lifetime, so a second concurrent Open of the same
// directory fails cleanly; platforms without flock do not detect
// concurrent openers.
func WithDir(path string) Option {
	return func(c *engine.Config) error {
		if path == "" {
			return fmt.Errorf("face: WithDir: empty directory path")
		}
		c.Dir = path
		return nil
	}
}

// WithFsync enables or disables the fsync durability barrier of the
// file-backed devices opened by WithDir (enabled by default).
// WithFsync(false) trades host-crash durability for speed: Sync points are
// still counted but no longer reach the disk, so a process crash loses
// nothing while a host crash may lose acknowledged commits.  It has no
// effect on simulated devices.
func WithFsync(enabled bool) Option {
	return func(c *engine.Config) error {
		c.NoFsync = !enabled
		return nil
	}
}

// WithFlashDevice sets the flash device holding the cache extension.  It
// is required by every policy except "none".
func WithFlashDevice(flash Dev) Option {
	return func(c *engine.Config) error {
		c.FlashDev = flash
		return nil
	}
}

// WithPolicy selects the flash cache policy by name — one of the Policy*
// constants.  Unknown names fail at Open.
func WithPolicy(name string) Option {
	return func(c *engine.Config) error {
		p, err := engine.ParsePolicy(name)
		if err != nil {
			return err
		}
		c.Policy = p
		return nil
	}
}

// WithBufferPages sets the DRAM buffer pool capacity in 4 KiB pages
// (default DefaultBufferPages).
func WithBufferPages(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithBufferPages(%d): must be at least 1", n)
		}
		c.BufferPages = n
		return nil
	}
}

// WithFlashFrames sets the flash cache capacity in 4 KiB page frames.  It
// is required by every policy that uses flash.
func WithFlashFrames(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithFlashFrames(%d): must be at least 1", n)
		}
		c.FlashFrames = n
		return nil
	}
}

// WithGroupSize overrides the replacement batch size used by the FaCE
// group optimizations (default: the flash block size, 64 pages).
func WithGroupSize(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithGroupSize(%d): must be at least 1", n)
		}
		c.GroupSize = n
		return nil
	}
}

// WithSegmentEntries overrides the persistent metadata segment size of the
// FaCE metadata directory (Section 4.1 of the paper).
func WithSegmentEntries(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithSegmentEntries(%d): must be at least 1", n)
		}
		c.SegmentEntries = n
		return nil
	}
}

// WithLockManager does nothing: every database schedules its transactions
// with page-granularity two-phase locking.
//
// Deprecated: remove the call.  WithMaxWriters(1) serialises writers.
func WithLockManager() Option {
	return func(*engine.Config) error { return nil }
}

// WithMaxWriters caps the number of Update transactions admitted
// concurrently (unlimited by default); WithMaxWriters(1) serialises
// writers.  The cap keeps lock contention and buffer-pool pin pressure
// proportionate to small DRAM pools.  It does not pace group commit: the
// log device does (the forces that arrive while one flush is in flight
// share the next).
func WithMaxWriters(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithMaxWriters(%d): must be at least 1", n)
		}
		c.MaxWriters = n
		return nil
	}
}

// WithRecovery runs crash recovery during Open.  Use it when reopening
// devices after a crash; the restart report is available from
// DB.RecoveryReport.
func WithRecovery() Option {
	return func(c *engine.Config) error {
		c.Recover = true
		return nil
	}
}

// WithSlowTxThreshold pins the span trace of every committed write
// transaction whose wall-clock latency reaches d, so the journal behind
// DB.Tracer keeps its per-phase spans (admission, lock, buffer, WAL
// append, durable wait, closure) and serves it at /debug/traces.  Zero
// (the default) pins none; phase tracing itself stays on.
func WithSlowTxThreshold(d time.Duration) Option {
	return func(c *engine.Config) error {
		if d < 0 {
			return fmt.Errorf("face: WithSlowTxThreshold(%v): must not be negative", d)
		}
		c.SlowTxThreshold = d
		return nil
	}
}

// WithMetricsRegistry shares a caller-supplied metrics registry with the
// engine, so an embedder (like faced) can serve engine and application
// metrics from one endpoint.  Nil lets the engine allocate its own,
// available from DB.Metrics.
func WithMetricsRegistry(reg *obs.Registry) Option {
	return func(c *engine.Config) error {
		c.Obs = reg
		return nil
	}
}
