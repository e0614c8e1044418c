// Package face is a Go reproduction of "Flash-Based Extended Cache for
// Higher Throughput and Faster Recovery" (Kang, Lee, Moon — VLDB 2012).
//
// It implements flash memory used as an extension of the DRAM buffer pool
// of a transactional storage engine: pages are cached in flash on exit
// from the DRAM buffer, the flash cache is managed by the paper's
// multi-version FIFO replacement with Group Replacement and Group Second
// Chance, its metadata directory is kept persistent in flash, and restart
// recovery reads the pages it needs from the flash cache instead of the
// disk array.
//
// # Opening a database
//
// A database is opened with functional options; the cache policy is
// selected by name through the policy registry:
//
//	db, err := face.Open(
//	    face.WithDevices(face.NewDiskArray("data", 8, 1<<16), face.NewDisk("log", 1<<16)),
//	    face.WithFlashDevice(face.NewSSD("flash", 8192)),
//	    face.WithPolicy(face.PolicyFaCEGSC),
//	    face.WithBufferPages(256),
//	    face.WithFlashFrames(4096),
//	)
//
// # Persistence
//
// WithDir replaces the simulated devices with real files in a directory —
// data.db, wal.log and flash.cache — whose writes go through pread/pwrite
// and whose durability barriers are real fsyncs:
//
//	db, err := face.Open(
//	    face.WithDir("/var/lib/mydb"),
//	    face.WithPolicy(face.PolicyFaCEGSC),
//	    face.WithFlashFrames(4096),
//	)
//
// Reopening an existing directory runs restart recovery automatically, so
// a process kill followed by Open recovers every committed transaction.
// cmd/faced serves such a directory over TCP (KV namespaces, admission
// control, graceful drain); see internal/server and the README's
// "Serving" section.
//
// # Transactions
//
// Work happens in closure transactions.  View and Update transactions run
// concurrently, isolated by page-granularity strict two-phase locking:
//
//	err = db.Update(ctx, func(tx *face.Tx) error {
//	    id, err := tx.Alloc(face.TypeHeap)
//	    if err != nil {
//	        return err
//	    }
//	    return tx.Modify(id, func(buf face.PageBuf) error {
//	        copy(buf.Payload(), payload)
//	        return nil
//	    })
//	})
//
//	err = db.View(ctx, func(tx *face.Tx) error {
//	    return tx.Read(id, func(buf face.PageBuf) error { ... })
//	})
//
// A nil return commits (with a commit-time log force for Update); an error
// rolls back and is propagated.  The context is checked at the transaction
// boundaries, so a cancelled context never commits.  Writes inside View
// fail with ErrConflict.
//
// Transactions lock the pages they read (shared) and write (exclusive) at
// first touch and hold the locks to commit or abort.  Deadlocks are
// detected: a transaction returning ErrDeadlock has been rolled back and
// should be retried.  Concurrent commits batch their log forces through
// the WAL's group-commit protocol, and WithMaxWriters(1) serialises
// writers.
//
// # Cache policies
//
// The paper's schemes — FaCE ("face"), FaCE with Group Replacement
// ("face+gr"), FaCE with Group Second Chance ("face+gsc"), Lazy Cleaning
// ("lc"), write-through ("wt") and "none" — self-register in the policy
// registry.  Policies() lists them, and RegisterPolicy adds custom ones:
//
//	face.RegisterPolicy("mine", func(p face.PolicyParams) (face.Extension, error) {
//	    return face.NewPolicy("face+gsc", p) // or any Extension implementation
//	})
//
// The implementation lives in the internal packages: device (calibrated
// simulated block devices), buffer (DRAM buffer pool), face (the cache
// managers), wal, engine, heap/btree, tpcc, and bench (the harness that
// regenerates every paper table and figure; see cmd/facebench).
package face

import (
	"github.com/reprolab/face/internal/bench"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	intface "github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/obs/trace"
	"github.com/reprolab/face/internal/page"
)

// Core engine types.
type (
	// DB is a transactional page store with an optional flash cache
	// extension.  View and Update run concurrent closure transactions.
	DB = engine.DB
	// Tx is a transaction.
	Tx = engine.Tx
	// RecoveryReport describes a completed restart.
	RecoveryReport = engine.RecoveryReport

	// PageID identifies a database page.
	PageID = page.ID
	// PageBuf is a raw 4 KiB page image.
	PageBuf = page.Buf
	// PageType tags the content of a page.
	PageType = page.Type

	// Dev is a simulated block device (a single Device or an Array).
	Dev = device.Dev
	// DeviceProfile describes a simulated storage device.
	DeviceProfile = device.Profile

	// Extension is the interface a flash cache manager implements; custom
	// policies registered with RegisterPolicy return one.
	Extension = intface.Extension
	// PolicyParams carries the engine wiring handed to a policy
	// constructor.
	PolicyParams = intface.PolicyParams
	// CacheStats is a snapshot of flash cache activity.
	CacheStats = intface.Stats
	// LockStats is a snapshot of the page lock manager (grants, waits,
	// deadlocks); it is part of DB.Snapshot.
	LockStats = metrics.LockStats
	// ShardStats is the per-shard breakdown of buffer pool activity under
	// WithBufferShards; DB.Snapshot carries one per shard.
	ShardStats = metrics.ShardStats
	// CacheStripeStats is the per-stripe breakdown of flash cache lookup
	// activity under WithCacheStripes; DB.Snapshot carries one per stripe.
	CacheStripeStats = metrics.CacheStripeStats
	// GroupCommitStats is a snapshot of the write-ahead log's commit
	// batching (requests, device writes, piggybacked forces); it is part
	// of DB.Snapshot.
	GroupCommitStats = metrics.GroupCommitStats
	// WalStats is a snapshot of the write-ahead log's commit pipeline
	// (reservations, stalls, syncer coalescing, torn-slot writes); it is
	// part of DB.Snapshot.
	WalStats = metrics.WalStats

	// MetricsRegistry is the named registry of histograms, counters and
	// gauges behind DB.Metrics; share one across engine and embedder with
	// WithMetricsRegistry and render it with its WritePrometheus method.
	MetricsRegistry = obs.Registry
	// LatencyHistogram is the lock-free log-bucketed latency histogram
	// the observability layer records into.
	LatencyHistogram = obs.Histogram
	// LatencySummary condenses a histogram window into count, mean and
	// p50/p95/p99/p999/max.
	LatencySummary = obs.Summary
	// TxPhases is the commit-path phase breakdown carried by DB.Snapshot
	// (histogram snapshots per phase; Sub isolates a window and
	// Summaries condenses it).
	TxPhases = obs.TxPhases
	// TxPhaseSummaries is the condensed, JSON-friendly form of TxPhases.
	TxPhaseSummaries = obs.TxPhaseSummaries

	// Tracer owns the request-scoped span journal and flight recorder
	// behind DB.Tracer (nil with WithTracing(false) or
	// WithObservability(false)); its Dump method is what faced serves at
	// /debug/traces.
	Tracer = trace.Tracer
	// Trace is one request-scoped span trace; servers start one per
	// request and the engine attaches its commit-path phases as spans.
	Trace = trace.Trace
	// TraceID identifies a trace; it is the value histogram exemplars
	// carry and the wire protocol propagates.
	TraceID = trace.ID
	// TraceDump is the JSON-friendly journal snapshot returned by
	// Tracer.Dump: retention stats, pinned and sampled traces, and the
	// flight recorder's lifecycle events.
	TraceDump = trace.Dump
	// DeadlockError is the structured form of ErrDeadlock: the victim,
	// the wait-for cycle it would have closed, and the pages it held.  Match with errors.As; errors.Is
	// against ErrDeadlock keeps working.
	DeadlockError = lock.DeadlockError

	// BenchOptions scales the paper-reproduction experiments.
	BenchOptions = bench.Options
	// Golden is a pre-loaded TPC-C database image used by the experiments.
	Golden = bench.Golden
)

// Built-in cache policy names (see the paper's Table 2 and Section 3).
// The constants are untyped strings: they are accepted by WithPolicy and
// anywhere else a policy name is expected.
const (
	PolicyNone         = "none"
	PolicyFaCE         = "face"
	PolicyFaCEGR       = "face+gr"
	PolicyFaCEGSC      = "face+gsc"
	PolicyLC           = "lc"
	PolicyWriteThrough = "wt"
)

// PageSize is the database page size in bytes (4 KiB).
const PageSize = page.Size

// TypeHeap tags a heap page; it is the page type application transactions
// allocate.
const TypeHeap = page.TypeHeap

// Sentinel errors, matched with errors.Is.
var (
	// ErrClosed is returned by operations on a closed database.
	ErrClosed = engine.ErrClosed
	// ErrCrashed is returned after Crash until the database is reopened.
	ErrCrashed = engine.ErrCrashed
	// ErrNoDevice is returned by Open when a required device is missing.
	ErrNoDevice = engine.ErrNoDevice
	// ErrTxDone is returned by operations on a finished transaction.
	ErrTxDone = engine.ErrTxDone
	// ErrConflict is returned for writes attempted inside a read-only
	// (View) transaction.
	ErrConflict = engine.ErrConflict
	// ErrDeadlock is returned by View/Update transactions chosen as
	// deadlock victims by the page lock manager.  The transaction has been
	// rolled back; retrying it is safe and expected.
	ErrDeadlock = engine.ErrDeadlock
)

// Open creates or reopens a database configured by the given options.  At
// minimum the data and log devices must be provided with WithDevices.
func Open(opts ...Option) (*DB, error) {
	cfg := engine.Config{
		BufferPages: DefaultBufferPages,
		Policy:      engine.PolicyNone,
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return engine.Open(cfg)
}

// RegisterPolicy makes a cache policy selectable by name through
// WithPolicy.  The built-in schemes register themselves; registering an
// empty or duplicate name panics.  A nil constructor registers a policy
// that runs without a flash cache.
func RegisterPolicy(name string, ctor func(PolicyParams) (Extension, error)) {
	if ctor == nil {
		intface.RegisterPolicy(name, nil)
		return
	}
	intface.RegisterPolicy(name, intface.PolicyConstructor(ctor))
}

// Policies returns the registered cache policy names in sorted order.
func Policies() []string { return intface.Policies() }

// NewPolicy constructs the named policy's cache manager; it is the hook
// custom constructors use to wrap or delegate to built-in policies.
func NewPolicy(name string, p PolicyParams) (Extension, error) {
	return intface.NewPolicy(name, p)
}

// NewDisk creates a simulated enterprise 15k-RPM disk drive with the given
// capacity in 4 KiB blocks.
func NewDisk(name string, blocks int64) *device.Device {
	return device.New(name, device.ProfileCheetah15K, blocks)
}

// NewDiskArray creates a simulated RAID-0 array of n 15k-RPM disk drives.
func NewDiskArray(name string, n int, blocks int64) *device.Array {
	return device.NewArray(name, device.ProfileCheetah15K, n, blocks)
}

// NewSSD creates a simulated MLC flash SSD (Samsung 470) with the given
// capacity in 4 KiB blocks.
func NewSSD(name string, blocks int64) *device.Device {
	return device.New(name, device.ProfileSamsung470, blocks)
}

// NewSLCSSD creates a simulated SLC flash SSD (Intel X25-E).
func NewSLCSSD(name string, blocks int64) *device.Device {
	return device.New(name, device.ProfileIntelX25E, blocks)
}

// NewMetricsRegistry creates an empty metrics registry to share between
// the engine (WithMetricsRegistry) and the embedder's own exporter; see
// MetricsRegistry.WritePrometheus and MetricsRegistry.Expvar.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultBenchOptions returns the experiment scale used by the facebench
// command.
func DefaultBenchOptions() BenchOptions { return bench.DefaultOptions() }

// QuickBenchOptions returns a small experiment scale for tests.
func QuickBenchOptions() BenchOptions { return bench.QuickOptions() }

// BuildGolden loads the TPC-C database image used by the experiments.
func BuildGolden(opts BenchOptions) (*Golden, error) { return bench.BuildGolden(opts) }
