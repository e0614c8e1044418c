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

// WithFileDevices overrides the logical capacities (in 4 KiB blocks) of
// the device files opened by WithDir: the data file, the log file and the
// flash cache file.  Zero keeps a field at its default (generous sparse
// capacities; the flash file is sized from WithFlashFrames).  Files are
// sparse, so large capacities cost no disk space until written.
func WithFileDevices(dataBlocks, logBlocks, flashBlocks int64) Option {
	return func(c *engine.Config) error {
		if dataBlocks < 0 || logBlocks < 0 || flashBlocks < 0 {
			return fmt.Errorf("face: WithFileDevices(%d, %d, %d): capacities must not be negative",
				dataBlocks, logBlocks, flashBlocks)
		}
		c.FileDataBlocks = dataBlocks
		c.FileLogBlocks = logBlocks
		c.FileFlashBlocks = flashBlocks
		return nil
	}
}

// WithFileWorkers sets the data file's positioned-I/O worker pool width
// under WithDir (default engine.DefaultFileWorkers).  Run operations are
// split across the pool and the count is reported as the device's
// Parallelism, playing the role the member count plays for a simulated
// disk array.
func WithFileWorkers(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithFileWorkers(%d): must be at least 1", n)
		}
		c.FileWorkers = n
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

// WithPolicy selects the flash cache policy by registry name — one of the
// Policy* constants or any name added with RegisterPolicy.  Unknown names
// fail at Open.
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

// WithBufferShards sets the number of independently locked shards the
// DRAM buffer pool is striped over.  Each shard has its own mutex, LRU
// list and statistics, and pages are assigned to shards by a hash of
// their id, so concurrent transactions hitting different pages never
// serialize on one pool lock.  The default derives the count from
// GOMAXPROCS; WithBufferShards(1) reproduces the single-mutex global-LRU
// pool (useful when strict LRU eviction order matters more than
// scalability).  The count is clamped so every shard holds at least one
// page.
func WithBufferShards(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithBufferShards(%d): must be at least 1", n)
		}
		c.BufferShards = n
		return nil
	}
}

// WithCacheStripes sets the number of independently locked stripes the
// flash cache's lookup structures (the page directory and the in-transit
// map) are split over, so cache probes for different pages never contend
// with each other or with an in-flight group write.  The default derives
// the count from GOMAXPROCS; WithCacheStripes(1) reproduces the
// single-mutex lookup path.  Policies without striped lookup structures
// ("lc", "wt") ignore it.
func WithCacheStripes(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithCacheStripes(%d): must be at least 1", n)
		}
		c.CacheStripes = n
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

// WithCleanThreshold sets the Lazy Cleaning dirty-frame fraction that
// triggers the lazy cleaner (policy "lc" only; default 0.75).
func WithCleanThreshold(t float64) Option {
	return func(c *engine.Config) error {
		if t <= 0 || t > 1 {
			return fmt.Errorf("face: WithCleanThreshold(%g): must be in (0, 1]", t)
		}
		c.CleanThreshold = t
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
// proportionate to small DRAM pools, and doubles as the group-commit
// batching hint: the write-ahead log collects up to this many commit forces
// into one device write.
func WithMaxWriters(n int) Option {
	return func(c *engine.Config) error {
		if n < 1 {
			return fmt.Errorf("face: WithMaxWriters(%d): must be at least 1", n)
		}
		c.MaxWriters = n
		return nil
	}
}

// WithCheckpointInterval enables periodic database checkpoints every d of
// simulated time (zero disables them, the default).
func WithCheckpointInterval(d time.Duration) Option {
	return func(c *engine.Config) error {
		if d < 0 {
			return fmt.Errorf("face: WithCheckpointInterval(%v): must not be negative", d)
		}
		c.CheckpointEvery = d
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

// WithObservability enables or disables the observability layer (enabled
// by default): commit-path phase histograms, per-layer counters and the
// registry served by DB.Metrics.  Disabling it reduces every recording
// site to a nil check and makes DB.Metrics return nil; the measured cost
// of leaving it on is small (obs.observe_ns in the benchmark's per-layer
// metrics).
func WithObservability(enabled bool) Option {
	return func(c *engine.Config) error {
		c.DisableObs = !enabled
		return nil
	}
}

// WithTracing enables or disables request-scoped span tracing (enabled by
// default whenever observability is on; WithObservability(false) implies
// it off).  With tracing on, every Update carries a span trace — adopted
// from the request context when a server attached one, self-started
// otherwise — whose commit-path phases land in the tail-sampled journal
// behind DB.Tracer, with slow transactions, deadlock victims and WAL sync
// stalls pinned.  Disabling it makes DB.Tracer return nil and reduces the
// recording sites to nil checks (trace_overhead_pct in the benchmark prices
// leaving it on).
func WithTracing(enabled bool) Option {
	return func(c *engine.Config) error {
		c.DisableTracing = !enabled
		return nil
	}
}

// WithTraceJournal tunes the trace journal's retention: capacity is the
// size of each ring (pinned anomalies and sampled normals; default 256)
// and sampleEvery keeps 1 in that many unpinned traces (default 16;
// negative disables sampling so only pinned traces are retained).  Zero
// keeps a field at its default.
func WithTraceJournal(capacity, sampleEvery int) Option {
	return func(c *engine.Config) error {
		if capacity < 0 {
			return fmt.Errorf("face: WithTraceJournal(%d, %d): capacity must not be negative", capacity, sampleEvery)
		}
		c.TraceCapacity = capacity
		c.TraceSampleEvery = sampleEvery
		return nil
	}
}

// WithSlowTxThreshold enables the slow-transaction log: every committed
// write transaction whose wall-clock latency reaches d emits a one-line
// per-phase breakdown (admission, lock, buffer, WAL append, durable wait,
// closure) through the sink set by WithSlowTxLog (default log.Printf).
// The same threshold pins slow transactions' span traces in the journal
// (WithTracing), so the log line's trace ID is retrievable later.  Zero
// (the default) disables both; phase tracing itself stays on.
func WithSlowTxThreshold(d time.Duration) Option {
	return func(c *engine.Config) error {
		if d < 0 {
			return fmt.Errorf("face: WithSlowTxThreshold(%v): must not be negative", d)
		}
		c.SlowTxThreshold = d
		return nil
	}
}

// WithSlowTxLog sets the sink that receives slow-transaction log lines
// (default log.Printf).  A nil logf restores the default.
func WithSlowTxLog(logf func(format string, args ...any)) Option {
	return func(c *engine.Config) error {
		c.Logf = logf
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
