package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/buffer"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/recovery"
	"github.com/reprolab/face/internal/wal"
)

// superblockMagic identifies an initialised database superblock (page 0 of
// the data device).
const superblockMagic = 0xFACEDB01

// DB is a transactional page store with an optional flash cache extension.
// It is safe for concurrent use: every transaction is a View or Update,
// and they run in parallel, isolated by the page-granularity two-phase
// lock manager (sched.go).
type DB struct {
	// txMu is the transaction scheduler lock.  View and Update transactions
	// hold the read side (page locks provide their mutual exclusion).
	// Lifecycle operations (Checkpoint, Close, Crash, Tick) hold the write
	// side and must therefore not be called from inside a View/Update
	// closure.
	txMu sync.RWMutex

	// locks is the page lock manager.
	locks *lock.Manager
	// writerSem, when non-nil, admits at most Config.MaxWriters Update
	// transactions at a time.
	writerSem chan struct{}

	// mu guards page allocation, the checkpoint bookkeeping and the
	// lifecycle transitions below.  The per-transaction state (nextTx,
	// the commit and abort counters, the closed/crashed flags a beginning
	// transaction checks) is atomic instead, so no transaction crosses it
	// except to allocate a page.
	mu sync.Mutex

	cfg Config

	dataDev  device.Dev
	logDev   device.Dev
	flashDev device.Dev

	// dataBarrier is whether the data device has a durability barrier
	// (device.Syncer).  Without one a write is durable when it returns.
	dataBarrier bool
	// writtenMu guards written, the page-written notes of data device
	// writes that wait for syncData to log them.  notesPending is set while
	// written holds any, so that an eviction that wrote nothing does not
	// cross the process-wide mutex.
	writtenMu    sync.Mutex
	written      []wal.PageWrite
	notesPending atomic.Bool

	pool  *buffer.Pool
	cache face.Extension
	log   *wal.Manager

	// obs is the observability layer: commit-path phase histograms, the
	// metric registry and the span tracer (see obs.go).
	obs *dbObs

	// files holds the file-backed device set when the database was opened
	// with Config.Dir; the engine owns it and closes it on Close/Crash.
	files io.Closer

	nextPage page.ID
	// nextTx is the last transaction ID handed out.
	nextTx atomic.Uint64
	// maxLSNSeen is the page-LSN high-water mark recorded in the
	// superblock at the last checkpoint; it lets a fresh log continue the
	// LSN sequence of a database image created under an earlier log.
	maxLSNSeen page.LSN

	committed atomic.Int64
	aborted   atomic.Int64

	lastCheckpoint time.Duration
	checkpoints    int64

	recoveryReport *RecoveryReport

	// ioErr poisons the instance after an I/O failure on a path that
	// cannot surface its error to any caller (the GSC pull path): new
	// transactions fail with it instead of silently reading stale data.
	// Restart recovery is the only way forward, exactly as for a crash.
	// It is an atomic (not a field under mu) for two reasons: the pull
	// path can run with mu already held, and the check sits on the buffer
	// miss path, which must not gain a process-wide mutex.
	ioErr atomic.Pointer[error]

	// closed and crashed are written under txMu and mu (no transaction is
	// in flight when they change) and read without either by beginTx.
	crashed atomic.Bool
	closed  atomic.Bool
}

// setIOErr records the first unreportable I/O failure; later transactions
// fail with it.
func (db *DB) setIOErr(err error) {
	db.ioErr.CompareAndSwap(nil, &err)
}

// loadIOErr returns the poisoning error, or nil.
func (db *DB) loadIOErr() error {
	if p := db.ioErr.Load(); p != nil {
		return *p
	}
	return nil
}

// RecoveryReport describes a completed restart, including the timing split
// the paper reports in Section 5.5.
type RecoveryReport struct {
	recovery.Report
	// MetadataRestoreTime is the simulated time spent rebuilding the flash
	// cache metadata directory.
	MetadataRestoreTime time.Duration
	// RedoUndoTime is the simulated time spent in the log passes.
	RedoUndoTime time.Duration
	// TotalTime is the total simulated restart time.
	TotalTime time.Duration
	// FlashReads and DiskReads are the page reads performed during
	// recovery, split by device.
	FlashReads int64
	DiskReads  int64
}

// Open creates or reopens a database on the given devices.  With
// cfg.Recover set, crash recovery runs before Open returns and its report
// is available from RecoveryReport.
func Open(cfg Config) (*DB, error) {
	var files io.Closer
	if cfg.Dir != "" {
		set, err := cfg.openFileDevices()
		if err != nil {
			return nil, err
		}
		files = set
		// A directory with an initialised data file is a reopen: the
		// previous incarnation may have crashed, so restart recovery runs
		// whether or not the caller asked for it.
		if set.Existed {
			cfg.Recover = true
		}
	}
	closeFiles := func() {
		if files != nil {
			files.Close()
		}
	}
	if err := cfg.validate(); err != nil {
		closeFiles()
		return nil, err
	}
	_, dataBarrier := cfg.DataDev.(device.Syncer)
	db := &DB{
		cfg:         cfg,
		dataDev:     cfg.DataDev,
		logDev:      cfg.LogDev,
		flashDev:    cfg.FlashDev,
		dataBarrier: dataBarrier,
		files:       files,
		nextPage:    1,
		locks:       lock.New(),
	}
	if cfg.MaxWriters > 0 {
		db.writerSem = make(chan struct{}, cfg.MaxWriters)
	}
	db.obs = newDBObs(&db.cfg)

	var err error
	db.log, err = wal.Open(cfg.LogDev)
	if err != nil {
		closeFiles()
		return nil, err
	}
	// From here on a failed Open must also stop the WAL's syncer
	// goroutine.
	abortLog := func() {
		db.log.Close()
		closeFiles()
	}
	if err := db.readSuperblock(); err != nil {
		abortLog()
		return nil, err
	}
	// If the database pages carry LSNs from an earlier log incarnation
	// (e.g. a cloned database image attached to a fresh log device), start
	// the new log above their high-water mark so that LSN comparisons in
	// redo and in the flash cache stay meaningful.
	if db.maxLSNSeen > db.log.Next() && db.log.Durable() == db.log.Next() && db.log.LastCheckpoint() == 0 {
		if err := db.log.SetStart(db.maxLSNSeen); err != nil {
			abortLog()
			return nil, err
		}
	}

	db.cache, err = cfg.buildCache(db.writeData, db.syncData, db.pullVictims)
	if err != nil {
		abortLog()
		return nil, err
	}

	db.pool, err = buffer.New(cfg.BufferPages, db.fetchPage, db.evictPage)
	if err != nil {
		abortLog()
		return nil, err
	}
	// Concurrent transactions pin pages in parallel; a transiently
	// all-pinned pool should wait for an unpin (pins are short-held and
	// never span a lock wait) rather than fail the transaction.
	db.pool.SetPinWait(true)

	db.obs.event("open: wal ready next=%d durable=%d", db.log.Next(), db.log.Durable())
	if cfg.Recover {
		if err := db.recover(); err != nil {
			abortLog()
			return nil, err
		}
	}
	db.lastCheckpoint = db.Elapsed()
	db.registerMetrics()
	db.obs.event("open: complete pages=%d recover=%v", int64(db.nextPage)-1, cfg.Recover)
	return db, nil
}

// --- device wiring -------------------------------------------------------

// fetchPage loads a page on a DRAM buffer miss: the flash cache first, the
// data device otherwise.
func (db *DB) fetchPage(id page.ID, buf page.Buf) (bool, error) {
	// A poisoned instance must not serve misses: pages dropped by the
	// failed pull would read back as stale disk copies.  In-flight
	// transactions hit this on their next miss; new ones fail at begin.
	if err := db.loadIOErr(); err != nil {
		return false, err
	}
	if db.cache != nil {
		found, dirty, err := db.cache.Lookup(id, buf)
		if err != nil {
			return false, err
		}
		if found {
			return dirty, nil
		}
	}
	if err := db.dataDev.ReadAt(int64(id), buf); err != nil {
		return false, err
	}
	return false, nil
}

// evictPage handles a page leaving the DRAM buffer: write-ahead rule first,
// then stage into the flash cache (or straight to disk without one).
func (db *DB) evictPage(v buffer.Victim) error {
	if v.Dirty || v.FDirty {
		if err := db.log.Force(v.Data.LSN() + 1); err != nil {
			return err
		}
	}
	var err error
	if db.cache != nil {
		err = db.cache.StageIn(v.ID, v.Data, v.Dirty, v.FDirty)
	} else if v.Dirty {
		err = db.writeData(v.ID, v.Data)
	}
	if err != nil || db.dataBarrier || !db.notesPending.Load() {
		return err
	}
	// Without a barrier a write is durable when it returns, and syncData
	// only logs notes: those of the writes this eviction caused go at once.
	return db.syncData()
}

// writeData writes a page image to its home on the data device.  Every
// write goes through it — the flash cache's destages too — so that restart
// learns from the log which images are durable there: the write is noted,
// and the note logged by the next syncData, which follows the barrier that
// makes the write durable.
func (db *DB) writeData(id page.ID, data page.Buf) error {
	if err := db.dataDev.WriteAt(int64(id), data); err != nil {
		return err
	}
	// Redo never trusts a pageLSN of 0.
	if lsn := data.LSN(); lsn != 0 {
		db.writtenMu.Lock()
		if len(db.written) < maxPendingNotes {
			db.written = append(db.written, wal.PageWrite{ID: id, LSN: lsn})
			db.notesPending.Store(true)
		}
		db.writtenMu.Unlock()
	}
	return nil
}

// maxPendingNotes bounds the notes that wait for a barrier, which on a
// data device with one may not come before the next checkpoint (HDD-only
// evictions).  A note dropped past it only costs restart a read.  It also
// keeps a page-written record (16 bytes a note) far below the log buffer.
const maxPendingNotes = 4096

// syncData is the data device's durability barrier (a no-op without one).
// The writes noted before it are durable after it, so their notes are
// logged then; writes that complete meanwhile wait for the next barrier.
// A failed barrier drops the notes, as it may have lost their writes.
func (db *DB) syncData() error {
	db.writtenMu.Lock()
	batch := db.written
	db.written = nil
	db.notesPending.Store(false)
	db.writtenMu.Unlock()
	if err := device.Sync(db.dataDev); err != nil || len(batch) == 0 {
		return err
	}
	// Nothing forces the notes: one lost in a crash only costs restart a
	// read.
	if _, err := db.log.Append(&wal.Record{Type: wal.TypePageWritten, Written: batch}); err != nil {
		return fmt.Errorf("engine: logging page writes: %w", err)
	}
	return nil
}

// pullVictims lets Group Second Chance top up a write group with victims
// pulled from the DRAM buffer's LRU tail.  The write-ahead rule is honoured
// before the pages are handed to the cache; the pool keeps them latched
// until the cache has taken them.
func (db *DB) pullVictims(n int, take func([]face.PulledPage)) {
	db.pool.EvictBatch(n, func(victims []buffer.Victim) {
		var maxLSN page.LSN
		for _, v := range victims {
			if (v.Dirty || v.FDirty) && v.Data.LSN() > maxLSN {
				maxLSN = v.Data.LSN()
			}
		}
		if maxLSN > 0 {
			// The pull path has no error return, but a failed force cannot be
			// swallowed either: the victims have already left the DRAM pool,
			// so dropping them here would let a live reader miss into a stale
			// disk copy with no surfaced error (reachable on file-backed
			// devices, where fsync can fail).  Poison the instance — new
			// transactions fail with the error and restart recovery replays
			// the WAL — and hand nothing to the cache.
			if err := db.log.Force(maxLSN + 1); err != nil {
				db.setIOErr(fmt.Errorf("engine: log force on the cache pull path failed, instance poisoned (restart to recover): %w", err))
				return
			}
		}
		out := make([]face.PulledPage, 0, len(victims))
		for _, v := range victims {
			out = append(out, face.PulledPage{ID: v.ID, Data: v.Data, Home: db.pool.Images(), Dirty: v.Dirty, FDirty: v.FDirty})
		}
		take(out)
	})
}

// --- superblock ----------------------------------------------------------

func (db *DB) readSuperblock() error {
	buf := make([]byte, device.BlockSize)
	if err := db.dataDev.ReadAt(0, buf); err != nil {
		return fmt.Errorf("engine: reading superblock: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[page.HeaderSize:]) == superblockMagic {
		db.nextPage = page.ID(binary.LittleEndian.Uint64(buf[page.HeaderSize+4:]))
		if db.nextPage < 1 {
			db.nextPage = 1
		}
		db.maxLSNSeen = page.LSN(binary.LittleEndian.Uint64(buf[page.HeaderSize+12:]))
	}
	return nil
}

func (db *DB) writeSuperblock() error {
	buf := page.NewBuf()
	buf.Init(0, page.TypeSuperblock)
	binary.LittleEndian.PutUint32(buf[page.HeaderSize:], superblockMagic)
	binary.LittleEndian.PutUint64(buf[page.HeaderSize+4:], uint64(db.nextPage))
	binary.LittleEndian.PutUint64(buf[page.HeaderSize+12:], uint64(db.log.Next()))
	buf.UpdateChecksum()
	if err := db.dataDev.WriteAt(0, buf); err != nil {
		return fmt.Errorf("engine: writing superblock: %w", err)
	}
	return nil
}

// --- lifecycle -----------------------------------------------------------

// Close checkpoints the database and flushes all cached dirty pages to
// disk, leaving the data device self-contained.  It waits for in-flight
// View/Update transactions to finish first.
func (db *DB) Close() error {
	db.txMu.Lock()
	defer db.txMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return nil
	}
	db.obs.event("close: begin committed=%d aborted=%d", db.committed.Load(), db.aborted.Load())
	if db.crashed.Load() {
		db.closed.Store(true)
		return db.closeFilesLocked()
	}
	//lint:allow facevet/nolockio shutdown fence: txMu excludes every transaction, holding both locks across the final flush is the point
	if err := db.closeFlushLocked(); err != nil {
		// The caller is abandoning the instance: close the pool so a
		// goroutine parked on a pin-wait fails instead of hanging.  The
		// instance counts as closed — its devices are gone, so admitting
		// another transaction would only fail deeper in the I/O stack.
		db.pool.Close()
		db.log.Close()
		db.closeFilesLocked()
		db.closed.Store(true)
		return err
	}
	// Closing the pool wakes any goroutine still parked on the all-pinned
	// condition (for example a transaction begun outside the scheduler)
	// with ErrClosed instead of leaving it blocked forever.
	db.pool.Close()
	// The final checkpoint forced the log tail, so stopping the WAL's
	// syncer strands nothing.
	db.log.Close()
	db.closed.Store(true)
	return db.closeFilesLocked()
}

// closeFilesLocked closes the file-backed device set of a Dir-opened
// database (a no-op otherwise).  It is idempotent.
func (db *DB) closeFilesLocked() error {
	if db.files == nil {
		return nil
	}
	f := db.files
	db.files = nil
	return f.Close()
}

// closeFlushLocked performs the flush side of Close: checkpoint, drain
// the cache to disk and write back dirty DRAM pages.
func (db *DB) closeFlushLocked() error {
	if err := db.checkpointLocked(); err != nil {
		return err
	}
	if db.cache != nil {
		if err := db.cache.FlushAll(); err != nil {
			return err
		}
	}
	if err := db.pool.FlushDirty(func(v buffer.Victim) error {
		if !v.Dirty {
			return nil
		}
		return db.writeData(v.ID, v.Data)
	}, true); err != nil {
		return err
	}
	// Leave the data device durably self-contained (no-op on simulated
	// devices; the flash metadata was synced by the checkpoint above).
	if err := db.syncData(); err != nil {
		return fmt.Errorf("engine: syncing data device at close: %w", err)
	}
	return nil
}

// Crash simulates a process failure: every volatile structure (DRAM buffer
// pool, unforced log tail, in-memory cache metadata) is lost; device
// contents survive.  Reopen the same devices with Config.Recover set to
// restart.  In-flight View/Update transactions complete before the crash
// takes effect.
func (db *DB) Crash() {
	db.txMu.Lock()
	defer db.txMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.obs.event("crash: simulated failure committed=%d aborted=%d", db.committed.Load(), db.aborted.Load())
	db.pool.DropAll()
	db.pool.Close()
	db.log.Crash()
	// On file-backed devices the handles are released without any final
	// sync: whatever the OS already holds survives, exactly like a process
	// kill.  Reopening the same directory runs recovery.
	db.closeFilesLocked()
	db.crashed.Store(true)
	db.closed.Store(true)
}

// recover runs restart recovery: the flash cache metadata directory is
// restored first, then the log is replayed.
func (db *DB) recover() error {
	rep := &RecoveryReport{}
	db.obs.event("recover: begin")

	dataBefore := db.dataDev.Stats()
	flashBefore := device.Stats{}
	if db.flashDev != nil {
		flashBefore = db.flashDev.Stats()
	}
	logBefore := db.logDev.Stats()

	// Phase 1: restore the flash cache metadata directory.
	if db.cache != nil {
		if err := db.cache.Recover(); err != nil {
			return err
		}
	}
	var flashAfterMeta device.Stats
	if db.flashDev != nil {
		flashAfterMeta = db.flashDev.Stats()
		rep.MetadataRestoreTime = flashAfterMeta.Sub(flashBefore).Busy
	}
	db.obs.event("recover: cache metadata restored in %v", rep.MetadataRestoreTime)

	// Phase 2: analysis, redo and undo from the last completed checkpoint.
	r, err := recovery.Run(db.log, dbPager{db})
	if err != nil {
		return err
	}
	rep.Report = r
	if r.MaxPageID >= db.nextPage {
		db.nextPage = r.MaxPageID + 1
	}
	db.obs.event("recover: redo/undo complete records=%d redo=%d pages_redone=%d pages_skipped=%d undo=%d losers=%d",
		r.RecordsScanned, r.RedoApplied, r.PagesRedone, r.PagesSkipped, r.UndoApplied, r.LoserTxns)

	// Recovery runs single-threaded, so its simulated duration is the sum
	// of the service demand it placed on every device.
	dataDelta := db.dataDev.Stats().Sub(dataBefore)
	logDelta := db.logDev.Stats().Sub(logBefore)
	var flashDelta device.Stats
	if db.flashDev != nil {
		flashDelta = db.flashDev.Stats().Sub(flashBefore)
	}
	cpu := time.Duration(r.RecordsScanned) * metrics.DefaultCPUPerPageAccess
	rep.RedoUndoTime = dataDelta.Busy + logDelta.Busy + flashDelta.Busy + cpu - rep.MetadataRestoreTime
	if rep.RedoUndoTime < 0 {
		rep.RedoUndoTime = 0
	}
	rep.TotalTime = rep.MetadataRestoreTime + rep.RedoUndoTime
	rep.DiskReads = dataDelta.Reads()
	rep.FlashReads = flashDelta.Reads()

	// Take a checkpoint so the next crash does not have to replay this
	// work again, as real systems do at the end of restart.
	if err := db.checkpointLocked(); err != nil {
		return err
	}
	db.recoveryReport = rep
	db.obs.event("recover: complete total=%v (metadata=%v redo/undo=%v)", rep.TotalTime, rep.MetadataRestoreTime, rep.RedoUndoTime)
	return nil
}

// RecoveryReport returns the report of the restart performed by Open, or
// nil when the database was opened without recovery.
func (db *DB) RecoveryReport() *RecoveryReport { return db.recoveryReport }

// dbPager adapts the DB to the recovery.Pager interface.
type dbPager struct{ db *DB }

func (p dbPager) Get(id page.ID) (page.Buf, error) { return p.db.pool.Get(id) }
func (p dbPager) Unpin(id page.ID) error           { return p.db.pool.Unpin(id) }
func (p dbPager) MarkDirty(id page.ID) error       { return p.db.pool.MarkDirty(id) }

// lsnDirectory is a flash cache whose directory records the pageLSN of
// each cached copy: mvFIFO.
type lsnDirectory interface {
	CopyLSN(id page.ID) (lsn page.LSN, ok bool)
}

// Locate follows the read path: a page in the DRAM buffer, which may be
// newer than any persistent copy, is Unknown; a page the flash cache holds
// is Cached when its directory records the copy's pageLSN (mvFIFO, whose
// directory Recover has restored before redo starts) and Unknown otherwise
// (LC, write-through, a page in transit); any other page is OnDisk.
func (p dbPager) Locate(id page.ID) (recovery.Copy, page.LSN) {
	if p.db.pool.Contains(id) {
		return recovery.Unknown, 0
	}
	if p.db.cache == nil || !p.db.cache.Contains(id) {
		return recovery.OnDisk, 0
	}
	if d, ok := p.db.cache.(lsnDirectory); ok {
		if lsn, ok := d.CopyLSN(id); ok {
			return recovery.Cached, lsn
		}
	}
	return recovery.Unknown, 0
}

// --- checkpointing -------------------------------------------------------

// Checkpoint performs a database checkpoint: dirty DRAM pages are flushed
// into the persistent database (the flash cache under FaCE and LC, disk
// otherwise) and the flash cache checkpoints its own metadata.  It is
// exclusive with in-flight View/Update transactions and must not be called
// from inside their closures.
func (db *DB) Checkpoint() error {
	db.txMu.Lock()
	defer db.txMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	//lint:allow facevet/nolockio checkpoint fence: txMu excludes every transaction so the flush sees a quiescent engine by design
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	beginLSN, err := db.log.LogCheckpointBegin()
	if err != nil {
		return err
	}
	if db.cache != nil {
		// Dirty DRAM pages are checked in to the flash cache instead of
		// disk.  Under write-through the cache forwards them to disk, so
		// the DRAM copies become clean with respect to disk as well.
		syncedToDisk := db.cfg.Policy == PolicyWriteThrough
		err = db.pool.FlushDirty(func(v buffer.Victim) error {
			if err := db.log.Force(v.Data.LSN() + 1); err != nil {
				return err
			}
			return db.cache.StageIn(v.ID, v.Data, v.Dirty, v.FDirty)
		}, syncedToDisk)
		if err != nil {
			return err
		}
		if err := db.cache.Checkpoint(); err != nil {
			return err
		}
	} else {
		err = db.pool.FlushDirty(func(v buffer.Victim) error {
			if !v.Dirty {
				return nil
			}
			if err := db.log.Force(v.Data.LSN() + 1); err != nil {
				return err
			}
			return db.writeData(v.ID, v.Data)
		}, true)
		if err != nil {
			return err
		}
	}
	if err := db.writeSuperblock(); err != nil {
		return err
	}
	// Durability barriers before the checkpoint-end record: the record
	// must never become durable while the page writes it vouches for are
	// still in a volatile OS cache.  No-ops on simulated devices.
	if err := db.syncData(); err != nil {
		return fmt.Errorf("engine: syncing data device at checkpoint: %w", err)
	}
	if db.flashDev != nil {
		if err := device.Sync(db.flashDev); err != nil {
			return fmt.Errorf("engine: syncing flash device at checkpoint: %w", err)
		}
	}
	if err := db.log.LogCheckpointEnd(beginLSN); err != nil {
		return err
	}
	db.checkpoints++
	db.lastCheckpoint = db.Elapsed()
	db.obs.event("checkpoint: complete n=%d begin_lsn=%d", db.checkpoints, beginLSN)
	return nil
}

// Tick runs a periodic checkpoint when the modelled elapsed time has moved
// the configured interval past the last checkpoint.  The benchmark harness
// calls it between transactions.  Like Checkpoint it is exclusive with
// in-flight View/Update transactions and must not be called from inside
// their closures.
func (db *DB) Tick() error {
	db.txMu.Lock()
	defer db.txMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	now := db.Elapsed()
	if db.cfg.CheckpointEvery > 0 && now-db.lastCheckpoint >= db.cfg.CheckpointEvery {
		//lint:allow facevet/nolockio checkpoint fence: txMu excludes every transaction so the flush sees a quiescent engine by design
		return db.checkpointLocked()
	}
	return nil
}

// Checkpoints returns the number of checkpoints taken.
func (db *DB) Checkpoints() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpoints
}

// --- measurement ---------------------------------------------------------

// Elapsed returns the modelled elapsed simulated time of all work performed
// so far: the bottleneck of CPU, flash device and data device, with the log
// device overlapping the same way.
func (db *DB) Elapsed() time.Duration {
	ps := db.pool.Stats()
	return db.elapsedFor(ps.Hits + ps.Misses)
}

// elapsedFor computes the modelled elapsed time for a given buffer-access
// count.  Snapshot passes the access count of the one pool snapshot it
// already took, so its Elapsed and PageAccesses fields derive from the same
// counters instead of two reads racing concurrent transactions.
func (db *DB) elapsedFor(accesses int64) time.Duration {
	resources := []metrics.Resource{
		metrics.DeviceResource(db.dataDev),
		metrics.DeviceResource(db.logDev),
	}
	if db.flashDev != nil {
		resources = append(resources, metrics.DeviceResource(db.flashDev))
	}
	return metrics.DefaultModel().Elapsed(accesses, resources...)
}

// Snapshot captures every counter needed to measure a window of work by
// subtracting two snapshots.
type Snapshot struct {
	Elapsed      time.Duration
	Committed    int64
	Aborted      int64
	PageAccesses int64
	Checkpoints  int64
	Pool         buffer.Stats
	Cache        face.Stats
	// Pipeline is always zero (see metrics.PipelineStats); it stays until
	// the end-to-end benchmark stops reading it (ROADMAP item 1).
	Pipeline metrics.PipelineStats
	// Locks reports page lock manager activity.
	Locks metrics.LockStats
	// Wal reports the WAL commit pipeline: reservation stalls, copy
	// waits, syncer coalescing (commit-force batching), barrier
	// count/latency, parked forces.
	// Sampling it reads only atomics — never the WAL's locks.
	Wal   metrics.WalStats
	Data  device.Stats
	Log   device.Stats
	Flash device.Stats
	// Phases is the commit-path phase breakdown as histogram snapshots.
	// Like every other field it
	// subtracts: After.Phases.Sub(Before.Phases) isolates a window,
	// and .Summaries() condenses it to quantiles.
	Phases obs.TxPhases
}

// Snapshot returns the current counters.  The buffer pool is sampled once,
// under its lock, so PageAccesses, Pool and the Elapsed model all derive
// from the same counters even while workers keep mutating them.
func (db *DB) Snapshot() Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	ps := db.pool.Stats()
	s := Snapshot{
		Elapsed:      db.elapsedFor(ps.Hits + ps.Misses),
		Committed:    db.committed.Load(),
		Aborted:      db.aborted.Load(),
		PageAccesses: ps.Hits + ps.Misses,
		Checkpoints:  db.checkpoints,
		Pool:         ps,
		Locks:        db.locks.Stats(),
		Wal:          db.log.Stats(),
		Data:         db.dataDev.Stats(),
		Log:          db.logDev.Stats(),
		Phases:       db.obs.phasesSnapshot(),
	}
	if db.cache != nil {
		s.Cache = db.cache.Stats()
	}
	if db.flashDev != nil {
		s.Flash = db.flashDev.Stats()
	}
	return s
}

// Committed returns the number of committed transactions.
func (db *DB) Committed() int64 { return db.committed.Load() }

// Cache exposes the flash cache manager (nil without one).
func (db *DB) Cache() face.Extension { return db.cache }

// Pool exposes the DRAM buffer pool.
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Log exposes the write-ahead log manager.
func (db *DB) Log() *wal.Manager { return db.log }

// NumPages returns the number of allocated pages (excluding the superblock).
func (db *DB) NumPages() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return int64(db.nextPage) - 1
}
