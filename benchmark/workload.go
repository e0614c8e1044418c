package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	intface "github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/tpcc"
)

// scale is every size a run depends on beyond its seconds.  The tests run
// the same code at a smoke scale.
type scale struct {
	// reps is how many fresh databases one untraced run builds; every
	// end-to-end metric is the median over them.  Three is the fewest that
	// gives set-up time a median, and set-up is the larger part of a run.
	reps int

	// tpcc-miss: the loaded database, and the transactions run before the
	// window, between the checkpoint and the crash, and after the restart.
	tpcc                                tpcc.Config
	tpccWarmup, tpccTail, tpccPostCrash int

	// Served workloads: preloaded keys and warm-up length.
	kvKeys   int
	kvWarmup time.Duration

	// drives scales the iteration counts of the layer drives.
	drives float64
}

var sz = scale{
	reps:          3,
	tpcc:          tpcc.DefaultConfig(2), // about 2 800 pages
	tpccWarmup:    1000,
	tpccTail:      500,
	tpccPostCrash: 500,
	kvKeys:        25000, // about 1 100 pages
	kvWarmup:      500 * time.Millisecond,
	drives:        1,
}

// repConfig is what one repetition of a workload is given.  All inputs
// derive from seed; seconds is the repetition's share of the run.
type repConfig struct {
	seed    int64
	seconds float64
	tmp     string  // directory for database files
	tr      *tracer // nil in the untraced pass
	// last marks the final repetition of an untraced run; the untimed
	// durability phase hangs off it.  ladder asks kv-mixed to climb the rate
	// ladder (the bare repetition of the traced pass).
	last, ladder bool
}

// repResult is what one repetition yields: end-to-end values, per-layer
// values (kept in both passes, reported in the traced one), and the values
// that must repeat exactly between repetitions of the same seed.
type repResult struct {
	e2e         map[string]float64
	layer       map[string]float64
	fingerprint map[string]float64
	// rate and lat are the slices of the measured window the run's
	// ops_per_s, and its op_p50_ms and op_p99_ms, come from, together with
	// those of the other repetitions (see steady).  They are the same
	// slices except on kv-mixed, which takes the two from different phases.
	rate, lat []sliceStat
}

func newRepResult() repResult {
	return repResult{e2e: map[string]float64{}, layer: map[string]float64{}, fingerprint: map[string]float64{}}
}

type workloadFunc func(cfg repConfig, ck *checks) (repResult, error)

var workloads = map[string]workloadFunc{
	"tpcc-miss": runTPCCMiss,
	"kv-get":    runKVGet,
	"kv-mixed":  runKVMixed,
	"kv-insert": runKVInsert,
}

// checks counts attempted and failed operations of a run.  Everything an
// output check rejects is a failed operation: errors, refusals that are not
// retried, wrong values, keys missing after a restart, acknowledgements
// lost in the durability phase.
type checks struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string
}

func (c *checks) ok(n int) { c.attempted.Add(int64(n)) }

// fail counts one attempted operation as failed and keeps the first few
// reasons for the report.
func (c *checks) fail(format string, args ...any) {
	c.attempted.Add(1)
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *checks) report() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.msgs {
		fmt.Fprintln(os.Stderr, "  failed check:", m)
	}
}

// window is a pair of engine snapshots around a measured stretch, with the
// wall clock, the log position (the WAL statistics carry no byte count;
// LSNs are byte offsets) and a log of stolen processor time.
type window struct {
	before, after engine.Snapshot
	lsn0, lsn1    uint64
	start         time.Time
	wall          time.Duration
	steal         *stealLog
}

func openWindow(db *engine.DB) *window {
	return &window{before: db.Snapshot(), lsn0: uint64(db.Log().Next()), steal: startStealLog(), start: time.Now()}
}

func (w *window) close(db *engine.DB) {
	w.wall = time.Since(w.start)
	w.steal.finish()
	w.after = db.Snapshot()
	w.lsn1 = uint64(db.Log().Next())
}

// blocksWritten is every 4 KiB block the window sent to any device.
func (w *window) blocksWritten() int64 {
	return w.after.Data.Sub(w.before.Data).Writes() +
		w.after.Log.Sub(w.before.Log).Writes() +
		w.after.Flash.Sub(w.before.Flash).Writes()
}

// The served workloads run on files, which have no latency model, so their
// modelled figures price the transfers the file devices counted as the
// paper's calibrated devices would serve them: the data file as the 8-disk
// array, the log as one disk, the flash file as the MLC SSD.  The file
// devices classify transfers as random or sequential by the same rule as
// the simulated ones.  tpcc-miss runs on the simulated devices themselves
// and reads the engine's own model.
func priced(st device.Stats, p device.Profile) time.Duration {
	return time.Duration(st.RandReads)*p.ServiceTime(false, false) +
		time.Duration(st.RandWrites)*p.ServiceTime(true, false) +
		time.Duration(st.SeqReads)*p.ServiceTime(false, true) +
		time.Duration(st.SeqWrites)*p.ServiceTime(true, true)
}

func pricedResources(data, log, flash device.Stats) []metrics.Resource {
	return []metrics.Resource{
		{Name: "data", Busy: priced(data, device.ProfileCheetah15K), Parallelism: tpccDataDisks},
		{Name: "log", Busy: priced(log, device.ProfileCheetah15K), Parallelism: 1},
		{Name: "flash", Busy: priced(flash, device.ProfileSamsung470), Parallelism: 1},
	}
}

// pricedElapsed is the modelled elapsed time of the window on the paper's
// devices: the bottleneck of modelled CPU and priced device time, as
// DB.Snapshot().Elapsed is for simulated devices.
func (w *window) pricedElapsed() time.Duration {
	a, b := w.after, w.before
	return metrics.DefaultModel().Elapsed(a.PageAccesses-b.PageAccesses,
		pricedResources(a.Data.Sub(b.Data), a.Log.Sub(b.Log), a.Flash.Sub(b.Flash))...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts turns the window's snapshot delta into the per-layer count
// metrics, ops being the committed operations of the window.
func (w *window) layerCounts(out map[string]float64, ops int64) {
	a, b := w.after, w.before
	data, logd, flash := a.Data.Sub(b.Data), a.Log.Sub(b.Log), a.Flash.Sub(b.Flash)
	out["device.data.reads"] = float64(data.Reads())
	out["device.data.writes"] = float64(data.Writes())
	out["device.log.writes"] = float64(logd.Writes())
	out["device.flash.reads"] = float64(flash.Reads())
	out["device.flash.writes"] = float64(flash.Writes())
	out["device.data.busy_ms"] = ms(data.Busy)
	out["device.log.busy_ms"] = ms(logd.Busy)
	out["device.flash.busy_ms"] = ms(flash.Busy)
	out["device.flash.util"] = ratio(float64(flash.Busy), float64(a.Elapsed-b.Elapsed))

	hits, misses := a.Pool.Hits-b.Pool.Hits, a.Pool.Misses-b.Pool.Misses
	out["buffer.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out["buffer.misses"] = float64(misses)
	out["buffer.evictions"] = float64(a.Pool.Evictions - b.Pool.Evictions)
	out["buffer.dirty_evictions"] = float64(a.Pool.DirtyEvictions - b.Pool.DirtyEvictions)
	out["buffer.pin_waits"] = float64(a.Pool.PinWaits - b.Pool.PinWaits)

	c, c0 := a.Cache, b.Cache
	stageins := c.StageIns - c0.StageIns
	dirtyIn := c.DirtyStageIns - c0.DirtyStageIns
	diskWrites := c.DiskPageWrites - c0.DiskPageWrites
	out["face.hit_ratio"] = ratio(float64(c.Hits-c0.Hits), float64(c.Lookups-c0.Lookups))
	out["face.write_reduction"] = intface.Stats{DirtyStageIns: dirtyIn, DiskPageWrites: diskWrites}.WriteReduction()
	out["face.lookups"] = float64(c.Lookups - c0.Lookups)
	out["face.stageins"] = float64(stageins)
	out["face.flash_page_reads"] = float64(c.FlashPageReads - c0.FlashPageReads)
	out["face.flash_page_writes"] = float64(c.FlashPageWrites - c0.FlashPageWrites)
	out["face.disk_page_writes"] = float64(diskWrites)
	out["face.flash_writes_per_stagein"] = ratio(float64(c.FlashPageWrites-c0.FlashPageWrites), float64(stageins))
	out["face.second_chances"] = float64(c.SecondChances - c0.SecondChances)
	out["face.metadata_flushes"] = float64(c.MetadataFlushes - c0.MetadataFlushes)

	p := a.Pipeline.Sub(b.Pipeline)
	out["iosched.stall_ms"] = ms(p.StallTime)
	out["iosched.coalesced"] = float64(p.Coalesced)
	out["iosched.group_fill"] = p.GroupFill()

	wal := a.Wal.Sub(b.Wal)
	commits := a.Committed - b.Committed
	out["wal.appends"] = float64(wal.Appends)
	out["wal.bytes"] = float64(w.lsn1 - w.lsn0)
	out["wal.bytes_per_commit"] = ratio(float64(w.lsn1-w.lsn0), float64(commits))
	out["wal.force_requests"] = float64(wal.ForceRequests)
	out["wal.device_forces"] = float64(wal.Forces)
	out["wal.coalesce_factor"] = wal.CoalesceFactor()
	out["wal.reserve_stalls"] = float64(wal.ReserveStalls)
	out["wal.sync_ms"] = ms(wal.SyncTime)
	out["wal.torn_slot_writes"] = float64(wal.TornSlotWrites)

	l := a.Locks.Sub(b.Locks)
	out["lock.grants"] = float64(l.Grants())
	out["lock.waits"] = float64(l.Waits)
	out["lock.wait_ms"] = ms(l.WaitTime)
	out["lock.upgrades"] = float64(l.Upgrades)
	out["lock.deadlocks"] = float64(l.Deadlocks)
	out["lock.deadlocks_per_commit"] = ratio(float64(l.Deadlocks), float64(commits))

	out["engine.committed"] = float64(commits)
	out["engine.aborted"] = float64(a.Aborted - b.Aborted)
	out["engine.checkpoints"] = float64(a.Checkpoints - b.Checkpoints)
	out["engine.page_accesses_per_op"] = ratio(float64(a.PageAccesses-b.PageAccesses), float64(ops))
}

// recoveryCounts reports what the restart of a repetition did.
func recoveryCounts(out map[string]float64, rep *engine.RecoveryReport) {
	out["recovery.records_scanned"] = float64(rep.RecordsScanned)
	out["recovery.redo_applied"] = float64(rep.RedoApplied)
	out["recovery.undo_applied"] = float64(rep.UndoApplied)
	out["recovery.flash_reads"] = float64(rep.FlashReads)
	out["recovery.disk_reads"] = float64(rep.DiskReads)
	out["recovery.metadata_restore_sim_ms"] = ms(rep.MetadataRestoreTime)
}

// syncCount is the part of a file-backed device the sync counters read.
type syncCounter interface{ Syncs() int64 }

func syncsOf(dev device.Dev) int64 {
	if td, ok := dev.(*syncTracedev); ok {
		dev = td.Dev
	}
	if s, ok := dev.(syncCounter); ok {
		return s.Syncs()
	}
	return 0
}
