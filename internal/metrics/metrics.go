// Package metrics turns raw device statistics into the performance figures
// reported by the paper: elapsed simulated time, transactions per minute,
// device utilization and 4 KiB I/O throughput.
//
// The paper's experiments run 50 concurrent clients against PostgreSQL, so
// the storage devices operate as a closed system with their queues kept
// full.  Under that regime the elapsed wall-clock time of a workload is
// governed by its bottleneck resource.  The model here captures exactly
// that: each resource (CPU, flash device, each member of the disk array)
// accumulates busy time, and
//
//	elapsed = max over resources of (busy time / parallelism)
//
// Device utilization and I/O throughput follow directly from the same
// quantities.
package metrics

import (
	"time"

	"github.com/reprolab/face/internal/device"
)

// DefaultCPUPerPageAccess is the modelled CPU cost of one buffer-pool page
// access (latching, tuple manipulation, logging).  It bounds throughput
// when all I/O is absorbed by caches.
const DefaultCPUPerPageAccess = 5 * time.Microsecond

// DefaultCPUParallelism models the four cores of the paper's Core i7-860
// test machine.
const DefaultCPUParallelism = 4

// Model describes the non-storage resources of the system.
type Model struct {
	// CPUPerPageAccess is the CPU time charged per buffer-pool access.
	CPUPerPageAccess time.Duration
	// CPUParallelism is the number of cores available to overlap CPU work.
	CPUParallelism int
}

// DefaultModel returns the model used throughout the benchmarks.
func DefaultModel() Model {
	return Model{CPUPerPageAccess: DefaultCPUPerPageAccess, CPUParallelism: DefaultCPUParallelism}
}

// Normalized returns the model with every unset field taken from
// DefaultModel.
func (m Model) Normalized() Model {
	if m.CPUPerPageAccess <= 0 {
		m.CPUPerPageAccess = DefaultCPUPerPageAccess
	}
	if m.CPUParallelism <= 0 {
		m.CPUParallelism = DefaultCPUParallelism
	}
	return m
}

// Resource is one contributor to elapsed time.
type Resource struct {
	Name string
	// Busy is the total service time accumulated by the resource.
	Busy time.Duration
	// Parallelism is the number of requests the resource serves
	// concurrently (e.g. the number of member disks in a RAID-0 array).
	Parallelism int
}

// Elapsed returns the modelled elapsed time for a workload that performed
// pageAccesses buffer-pool accesses and kept the given resources busy.
func (m Model) Elapsed(pageAccesses int64, resources ...Resource) time.Duration {
	m = m.Normalized()
	cpu := time.Duration(pageAccesses) * m.CPUPerPageAccess / time.Duration(m.CPUParallelism)
	elapsed := cpu
	for _, r := range resources {
		par := r.Parallelism
		if par < 1 {
			par = 1
		}
		if t := r.Busy / time.Duration(par); t > elapsed {
			elapsed = t
		}
	}
	return elapsed
}

// DeviceResource builds a Resource from a device.
func DeviceResource(d device.Dev) Resource {
	if d == nil {
		return Resource{}
	}
	return Resource{Name: d.Name(), Busy: d.BusyTime(), Parallelism: d.Parallelism()}
}

// PipelineStats is what is left of the counters of the removed
// asynchronous flash I/O pipeline.  Every value is always zero: the cache
// writes groups and destages inline.  The end-to-end benchmark still
// reports them as its pipeline stall, coalescing and group-fill rows; the
// type goes when those rows do (ROADMAP item 1).
type PipelineStats struct {
	// Coalesced counted staged pages superseded before reaching flash.
	Coalesced int64
	// StallTime was the time producers spent blocked on a full ring.
	StallTime time.Duration
	// Batches and BatchPages were the group-writer flushes and the pages
	// they carried.
	Batches    int64
	BatchPages int64
}

// GroupFill returns the mean number of pages per group-writer flush.
func (p PipelineStats) GroupFill() float64 {
	if p.Batches == 0 {
		return 0
	}
	return float64(p.BatchPages) / float64(p.Batches)
}

// Sub returns the counter difference p - prior.
func (p PipelineStats) Sub(prior PipelineStats) PipelineStats {
	return PipelineStats{
		Coalesced:  p.Coalesced - prior.Coalesced,
		StallTime:  p.StallTime - prior.StallTime,
		Batches:    p.Batches - prior.Batches,
		BatchPages: p.BatchPages - prior.BatchPages,
	}
}

// ShardStats is the per-shard breakdown of buffer pool activity under the
// striped pool: one coherent counter snapshot per shard.  Comparing shards
// diagnoses stripe imbalance (a hot page id range funnelling into one
// shard's mutex).
type ShardStats struct {
	// Shard is the shard index, in pool order.
	Shard int
	// Hits/Misses/Evictions/DirtyEvictions/PinWaits mirror the pool-wide
	// counters, restricted to this shard.
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64
	PinWaits       int64
}

// Accesses returns the shard's buffer access count.
func (s ShardStats) Accesses() int64 { return s.Hits + s.Misses }

// CacheStripeStats is the per-stripe breakdown of flash cache lookup
// activity under the striped directory: one coherent counter snapshot per
// stripe, in stripe order.  Comparing stripes diagnoses directory hot
// spots the same way ShardStats does for the buffer pool.
type CacheStripeStats struct {
	// Stripe is the stripe index, in directory order.
	Stripe int
	// Lookups/Hits/FlashReads mirror the cache-wide lookup counters,
	// restricted to this stripe.
	Lookups    int64
	Hits       int64
	FlashReads int64
}

// LockStats captures the activity of the page-level lock manager
// (internal/lock) behind the multi-writer transaction scheduler.  All
// fields are cumulative counters; two snapshots subtract to measure a
// window of work.
type LockStats struct {
	// SharedGrants and ExclusiveGrants count granted lock requests by
	// mode (re-entrant requests on an already-held lock are not counted).
	SharedGrants    int64
	ExclusiveGrants int64
	// Upgrades counts S→X upgrades granted on a lock the transaction
	// already held shared.
	Upgrades int64
	// Waits counts requests that blocked, and WaitTime the total
	// wall-clock time they spent blocked.
	Waits    int64
	WaitTime time.Duration
	// Deadlocks counts requests refused with ErrDeadlock.
	Deadlocks int64
	// Cancels counts waits abandoned because the caller's context ended.
	Cancels int64
}

// Grants returns the total number of granted lock requests.
func (l LockStats) Grants() int64 { return l.SharedGrants + l.ExclusiveGrants + l.Upgrades }

// Sub returns the counter difference l - prior.
func (l LockStats) Sub(prior LockStats) LockStats {
	return LockStats{
		SharedGrants:    l.SharedGrants - prior.SharedGrants,
		ExclusiveGrants: l.ExclusiveGrants - prior.ExclusiveGrants,
		Upgrades:        l.Upgrades - prior.Upgrades,
		Waits:           l.Waits - prior.Waits,
		WaitTime:        l.WaitTime - prior.WaitTime,
		Deadlocks:       l.Deadlocks - prior.Deadlocks,
		Cancels:         l.Cancels - prior.Cancels,
	}
}

// GroupCommitStats captures the batching behaviour of the write-ahead
// log's commit forces: how many Force calls needed
// log I/O, how many device writes actually happened, and how many callers
// rode along on another caller's write.
type GroupCommitStats struct {
	// Requests counts Force calls that found the log not yet durable at
	// their LSN (calls satisfied without I/O by an earlier force are not
	// counted).
	Requests int64
	// Forces counts device writes performed (the same quantity as
	// wal.Manager.Forces).
	Forces int64
	// Piggybacked counts requests satisfied by another caller's device
	// write: the group-commit fan-in is Requests / Forces.
	Piggybacked int64
}

// FanIn returns the mean number of force requests satisfied per device
// write (1.0 = no batching).
func (g GroupCommitStats) FanIn() float64 {
	if g.Forces == 0 {
		return 0
	}
	return float64(g.Requests) / float64(g.Forces)
}

// Sub returns the counter difference g - prior.
func (g GroupCommitStats) Sub(prior GroupCommitStats) GroupCommitStats {
	return GroupCommitStats{
		Requests:    g.Requests - prior.Requests,
		Forces:      g.Forces - prior.Forces,
		Piggybacked: g.Piggybacked - prior.Piggybacked,
	}
}

// WalStats captures the activity of the write-ahead log's commit pipeline:
// the lock-free reservation ring the appenders copy into, the dedicated
// syncer goroutine that coalesces Force requests into device writes, and
// the fsync barrier.  All fields are cumulative counters; two snapshots
// subtract to measure a window of work.
type WalStats struct {
	// Appends counts records appended to the log.
	Appends int64
	// ReserveStalls counts Append reservations that found the log buffer
	// ring full and had to wait for the syncer to drain it.
	ReserveStalls int64
	// CopyWaits counts syncer flush rounds that had to wait for an
	// in-flight record copy to publish before the high-water mark covered
	// the requested LSN, and CopyWaitTime the total wall-clock time spent
	// in those waits.
	CopyWaits    int64
	CopyWaitTime time.Duration
	// ForceRequests counts Force calls that found the log not yet durable
	// at their LSN, Forces the flush rounds that performed device I/O for
	// them, and Piggybacked the requests satisfied by another request's
	// round: ForceRequests / Forces is the syncer's coalesce factor.
	ForceRequests int64
	Forces        int64
	Piggybacked   int64
	// Syncs counts durability barriers issued (fsync on file-backed
	// devices, free on simulated ones) and SyncTime their total wall-clock
	// latency.
	Syncs    int64
	SyncTime time.Duration
	// DurableWaits counts committers parked on the durable-LSN waitlist.
	DurableWaits int64
	// TornSlotWrites counts log tail entries written: images of the
	// partial tail block on devices with a barrier (at most one per force).
	TornSlotWrites int64
}

// CoalesceFactor returns the mean number of force requests satisfied per
// device-write round (1.0 = no coalescing).
func (w WalStats) CoalesceFactor() float64 {
	if w.Forces == 0 {
		return 0
	}
	return float64(w.ForceRequests) / float64(w.Forces)
}

// Sub returns the counter difference w - prior.
func (w WalStats) Sub(prior WalStats) WalStats {
	return WalStats{
		Appends:        w.Appends - prior.Appends,
		ReserveStalls:  w.ReserveStalls - prior.ReserveStalls,
		CopyWaits:      w.CopyWaits - prior.CopyWaits,
		CopyWaitTime:   w.CopyWaitTime - prior.CopyWaitTime,
		ForceRequests:  w.ForceRequests - prior.ForceRequests,
		Forces:         w.Forces - prior.Forces,
		Piggybacked:    w.Piggybacked - prior.Piggybacked,
		Syncs:          w.Syncs - prior.Syncs,
		SyncTime:       w.SyncTime - prior.SyncTime,
		DurableWaits:   w.DurableWaits - prior.DurableWaits,
		TornSlotWrites: w.TornSlotWrites - prior.TornSlotWrites,
	}
}

// Utilization returns busy/elapsed clamped to [0, 1].
func Utilization(busy, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}

// IOPS returns operations per second of elapsed time.
func IOPS(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// PerMinute returns events per minute of elapsed time (the tpmC analog).
func PerMinute(events int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(events) / elapsed.Minutes()
}
