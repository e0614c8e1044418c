package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/page"
)

// controlBlocks is the number of device blocks reserved at the start of the
// log device for the control block (last checkpoint LSN, durable log end).
const controlBlocks = 1

// controlMagic identifies an initialised control block of the current
// record format (edit-list update records).  oldControlMagic is what the
// single-range format wrote; such a log cannot be read by this code.
const (
	controlMagic    = 0xFACE10C1
	oldControlMagic = 0xFACE10C0
)

// ErrOldFormat is returned by Open for a log written in an earlier record
// format.  Restart the version that wrote it, close the database cleanly
// (so nothing in the log is needed any more) and start over with a fresh
// log device.
var ErrOldFormat = errors.New("wal: log was written in an older record format")

// Default commit-pipeline geometry: the in-memory log buffer is a ring of
// DefaultSegments segments of DefaultSegmentBytes each that committers
// reserve space in with one CAS and fill without holding any lock.
const (
	DefaultSegments     = 8
	DefaultSegmentBytes = 64 << 10
)

// Config tunes the log manager.  The zero value selects the lock-free
// commit pipeline with the default buffer geometry.
type Config struct {
	// Segments selects the log front end: 0 means DefaultSegments
	// (the lock-free reservation pipeline), 1 selects the mutex-compat
	// path (every Append serializes on one lock and Force writes inline —
	// the pre-pipeline behaviour, kept as the ablation baseline), and
	// values above 1 run the pipeline with that many buffer segments.
	Segments int
	// SegmentBytes is the size of one ring segment (0 = the default).
	SegmentBytes int
}

// Manager is the write-ahead log manager.
//
// Records are appended to an in-memory log buffer and become durable when
// Force is called (commit, page eviction, checkpoint).  Log writes are
// strictly sequential; the log device is typically a dedicated disk, as in
// the paper's experimental setup.
//
// The default front end is a three-stage pipeline in the Aether /
// scalable-ARIES-logging style: Append performs an atomic LSN/space
// reservation on a ring of buffer segments (one CAS, no lock), copies the
// record bytes into the reserved slot in parallel with other appenders, and
// publishes completion; a high-water mark — the largest LSN below which
// every copy has landed — replaces the mutex-guarded tail (reserve.go).
// Force parks the caller on a durable-LSN waitlist serviced by a dedicated
// syncer goroutine that coalesces concurrent requests into one device
// write + fsync round (syncer.go).  On devices with a real durability
// barrier the partial tail block is staged through a double-write slot at
// the end of the device before being rewritten in place, so a torn 4 KiB
// write cannot clip previously durable records (tornslot.go).
//
// Config{Segments: 1} selects the historical mutex path instead
// (compat.go); the on-device format is identical in both modes.
type Manager struct {
	dev device.Dev

	// base is the LSN assigned to the first byte of the log data region.
	// A freshly initialised log normally starts at 0; SetStart raises the
	// base so LSNs stay monotonic when a new log is attached to a
	// database whose pages already carry LSNs from an earlier log (e.g. a
	// database image cloned by the benchmark harness).  Immutable once
	// records exist.
	base page.LSN

	// protect is set when the device has a durability barrier
	// (device.Syncer) and room for the torn-tail double-write slot; the
	// partial tail block is then staged through the slot before every
	// in-place rewrite.  dataBlocks is the device capacity available to
	// log data (the slot blocks at the device end are excluded).
	protect    bool
	dataBlocks int64
	// tornMeta is the slot's metadata block (allocated when protect is
	// set), owned by the flushing goroutine (see writeTornSlot).
	tornMeta []byte

	// Hot read-only state is atomic so stats sampling (engine.Snapshot)
	// never contends with the commit path.
	durableA       atomic.Uint64 // LSN up to which the log is on the device
	nextA          atomic.Uint64 // next LSN (maintained by the compat path; the pipeline derives it from its position word)
	forcesA        atomic.Int64  // flush rounds that performed device I/O for a Force
	lastCheckpoint atomic.Uint64

	gcRequests    atomic.Int64
	gcPiggybacked atomic.Int64

	appends        atomic.Int64
	reserveStalls  atomic.Int64
	copyWaits      atomic.Int64
	copyWaitNS     atomic.Int64
	syncCount      atomic.Int64
	syncNS         atomic.Int64
	durableWaits   atomic.Int64
	tornSlotWrites atomic.Int64

	// Group-commit pacing hints, shared by both front ends.  gcWindowNS is
	// the leader/syncer collection window; committers the dynamic count of
	// registered committers (AddCommitter); committersHint a static
	// expectation (SetCommitters) that takes precedence when set.  The
	// hint matters on machines where concurrent commits never overlap by
	// chance (few cores): it tells the first force of a batch to open a
	// collection window so the other committers get scheduled into it.
	gcWindowNS     atomic.Int64
	committers     atomic.Int64
	committersHint atomic.Int64

	closed atomic.Bool

	// pipe is the lock-free front end (nil under Config{Segments: 1}).
	pipe *pipeline

	// Mutex-compat state (compat.go); unused when pipe != nil.
	mu sync.Mutex
	// pending holds encoded records in [durable, next).
	pending []byte
	// partial holds the bytes of the last durable block that precede
	// offset durable (so the block can be rewritten when more data is
	// appended to it).  The pipeline moves it into its own state at Open.
	partial []byte
	batch   *forceBatch
	// gcSolo counts consecutive forces that found no companion while a
	// committer hint was active; see shouldCollect.
	gcSolo int
}

// Adaptive solo-leader thresholds: after soloStreakLimit companion-less
// batches the collection window is skipped; every soloProbeEvery solo
// forces one window is paid as a probe so real concurrency is re-detected
// within a bounded number of commits.
const (
	soloStreakLimit = 3
	soloProbeEvery  = 16
)

// Open creates a manager with the default configuration on the given log
// device.  If the device contains an initialised control block, the
// existing log is preserved and the manager resumes appending after its
// durable end; otherwise a fresh log is initialised.
func Open(dev device.Dev) (*Manager, error) { return OpenConfig(dev, Config{}) }

// OpenConfig is Open with an explicit front-end configuration.
func OpenConfig(dev device.Dev, cfg Config) (*Manager, error) {
	m := &Manager{dev: dev, dataBlocks: dev.NumBlocks()}
	if _, ok := dev.(device.Syncer); ok && dev.NumBlocks() >= controlBlocks+tornSlotBlocks+1 {
		m.protect = true
		m.dataBlocks -= tornSlotBlocks
		m.tornMeta = make([]byte, device.BlockSize)
	}
	ctrl := make([]byte, device.BlockSize)
	if err := dev.ReadAt(0, ctrl); err != nil {
		return nil, fmt.Errorf("wal: reading control block: %w", err)
	}
	switch binary.LittleEndian.Uint32(ctrl[0:]) {
	case oldControlMagic:
		return nil, fmt.Errorf("%w (control magic %#x, this version reads %#x)", ErrOldFormat, uint32(oldControlMagic), uint32(controlMagic))
	case controlMagic:
		m.lastCheckpoint.Store(binary.LittleEndian.Uint64(ctrl[4:]))
		m.base = page.LSN(binary.LittleEndian.Uint64(ctrl[20:]))
		// Repair a torn tail block from the double-write slot before
		// trusting anything the end-of-log scan reads.
		if m.protect {
			if err := m.repairTornTail(); err != nil {
				return nil, err
			}
		}
		// The control block is only rewritten at checkpoints (real systems
		// do not touch their control file on every commit), so the durable
		// end of the log is found by scanning forward from the last known
		// record boundary until the records stop decoding.
		scanFrom := m.LastCheckpoint()
		if scanFrom < m.base {
			scanFrom = m.base
		}
		end, err := m.scanDurableEnd(scanFrom)
		if err != nil {
			return nil, err
		}
		m.durableA.Store(uint64(end))
		m.nextA.Store(uint64(end))
		if err := m.loadPartial(); err != nil {
			return nil, err
		}
		return m, m.start(cfg)
	}
	// Fresh log.
	if err := m.writeControl(); err != nil {
		return nil, err
	}
	// A slot left behind by an earlier log incarnation on the same device
	// must not repair a block of the new log.
	if m.protect {
		if err := m.invalidateTornSlot(); err != nil {
			return nil, err
		}
	}
	return m, m.start(cfg)
}

// start brings up the configured front end once the shared on-device state
// has been recovered.
func (m *Manager) start(cfg Config) error {
	segs := cfg.Segments
	if segs == 0 {
		segs = DefaultSegments
	}
	if segs < 1 {
		return fmt.Errorf("wal: Segments must be at least 1 (got %d)", cfg.Segments)
	}
	if segs == 1 {
		return nil // mutex-compat front end
	}
	segBytes := cfg.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	p, err := newPipeline(m, segs, segBytes)
	if err != nil {
		return err
	}
	m.pipe = p
	go p.syncerLoop()
	return nil
}

// Close stops the syncer goroutine of the pipeline front end.  It does not
// force the log: callers that need the tail durable force it first (the
// engine checkpoints on Close).  Idempotent.
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	if m.pipe != nil {
		m.pipe.stop()
	}
	return nil
}

// scanDurableEnd walks the log from a known record boundary and returns the
// LSN just past the last intact record.
func (m *Manager) scanDurableEnd(from page.LSN) (page.LSN, error) {
	end := from
	startBlk := int64(m.off(from)/device.BlockSize) + controlBlocks
	nextBlk := startBlk
	skip := int(m.off(from) % device.BlockSize)
	var stream []byte
	buf := make([]byte, device.BlockSize)

	readMore := func() (bool, error) {
		if nextBlk >= m.dataBlocks {
			return false, nil
		}
		if err := m.dev.ReadAt(nextBlk, buf); err != nil {
			return false, fmt.Errorf("wal: scanning for log end: %w", err)
		}
		stream = append(stream, buf...)
		nextBlk++
		return true, nil
	}

	for {
		// A record needs at least its 4-byte length field; the length field
		// being zero marks the zero-filled tail of the log.
		for len(stream)-skip < 4 {
			ok, err := readMore()
			if err != nil {
				return 0, err
			}
			if !ok {
				return end, nil
			}
		}
		length := binary.LittleEndian.Uint32(stream[skip:])
		if length == 0 {
			return end, nil
		}
		total := 4 + int(length)
		for len(stream)-skip < total {
			ok, err := readMore()
			if err != nil {
				return 0, err
			}
			if !ok {
				// The record claims more bytes than the device holds: it was
				// never completely written.
				return end, nil
			}
		}
		if _, consumed, err := decodeRecord(stream[skip:]); err == nil {
			skip += consumed
			end += page.LSN(consumed)
			continue
		}
		// Corrupt record (torn write at the crash): the log ends before it.
		return end, nil
	}
}

// off converts an LSN into a byte offset within the log data region.
func (m *Manager) off(lsn page.LSN) uint64 { return uint64(lsn - m.base) }

// SetStart raises the LSN of the first log byte of a freshly initialised,
// still empty log.  It is used when the database pages already carry LSNs
// from a previous log incarnation: starting above their high-water mark
// keeps LSN comparisons (redo checks, flash-cache version checks)
// meaningful.  It fails once anything has been appended.
func (m *Manager) SetStart(lsn page.LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Next() != m.base || m.Durable() != m.base || len(m.pending) > 0 ||
		(m.pipe != nil && !m.pipe.empty()) {
		return fmt.Errorf("wal: SetStart on a non-empty log (next %d, base %d)", m.Next(), m.base)
	}
	if lsn < m.base {
		return nil
	}
	m.base = lsn
	m.nextA.Store(uint64(lsn))
	m.durableA.Store(uint64(lsn))
	//lint:allow facevet/nolockio cold initialization: SetStart requires an empty log, so no appender can contend for the mutex
	return m.writeControl()
}

// loadPartial reads the partially filled last durable block so appends can
// rewrite it.
func (m *Manager) loadPartial() error {
	rem := int(m.off(m.Durable()) % device.BlockSize)
	m.partial = nil
	if rem == 0 {
		return nil
	}
	blk := int64(m.off(m.Durable())/device.BlockSize) + controlBlocks
	buf := make([]byte, device.BlockSize)
	if err := m.dev.ReadAt(blk, buf); err != nil {
		return fmt.Errorf("wal: reading partial tail block: %w", err)
	}
	m.partial = buf[:rem]
	return nil
}

func (m *Manager) writeControl() error {
	ctrl := make([]byte, device.BlockSize)
	binary.LittleEndian.PutUint32(ctrl[0:], controlMagic)
	binary.LittleEndian.PutUint64(ctrl[4:], m.lastCheckpoint.Load())
	binary.LittleEndian.PutUint64(ctrl[12:], uint64(m.Durable()))
	binary.LittleEndian.PutUint64(ctrl[20:], uint64(m.base))
	if err := m.dev.WriteAt(0, ctrl); err != nil {
		return err
	}
	return device.Sync(m.dev)
}

// writeBlocks writes a run of log blocks, staging the first block through
// the torn-tail double-write slot when it extends a previously durable
// partial block on a device without atomic block writes.  Both front ends
// funnel their device writes through here.
func (m *Manager) writeBlocks(startBlk int64, pages [][]byte, firstPartial bool) error {
	if startBlk+int64(len(pages)) > m.dataBlocks {
		return fmt.Errorf("wal: log device full (%d blocks)", m.dataBlocks)
	}
	if m.protect && firstPartial && len(pages) > 0 {
		if err := m.writeTornSlot(startBlk, pages[0]); err != nil {
			return err
		}
	}
	if err := m.dev.WriteRun(startBlk, pages); err != nil {
		return fmt.Errorf("wal: flushing log: %w", err)
	}
	return nil
}

// syncDevice issues the durability barrier and accounts for it.
func (m *Manager) syncDevice() error {
	start := time.Now()
	err := device.Sync(m.dev)
	m.syncCount.Add(1)
	m.syncNS.Add(int64(time.Since(start)))
	return err
}

// Append adds a record to the log tail and returns its LSN.  The record is
// not durable until Force is called with an LSN past it.  Under the
// pipeline front end Append acquires no mutex: it reserves log space with
// one CAS and copies the record bytes concurrently with other appenders.
func (m *Manager) Append(r *Record) (page.LSN, error) {
	if err := r.check(); err != nil {
		return 0, err
	}
	if m.pipe != nil {
		return m.pipe.append(r)
	}
	return m.appendCompat(r)
}

// Force makes the log durable at least up to lsn.  It is a no-op when the
// log is already durable past lsn.  Concurrent callers are coalesced: under
// the pipeline front end they park on the syncer's durable-LSN waitlist and
// one flush round covers the maximum requested LSN; under the compat front
// end the historical leader/follower protocol batches them.
func (m *Manager) Force(lsn page.LSN) error {
	if m.pipe != nil {
		return m.pipe.force(lsn)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:allow facevet/nolockio compat front end: the leader/follower protocol batches forces under the append mutex by documented design
	return m.forceLocked(lsn)
}

// ForceAll makes the entire log tail durable.
func (m *Manager) ForceAll() error {
	if m.pipe != nil {
		return m.pipe.force(m.Next())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:allow facevet/nolockio compat front end: the leader/follower protocol batches forces under the append mutex by documented design
	return m.forceLocked(m.Next())
}

// Next returns the LSN that will be assigned to the next appended record.
func (m *Manager) Next() page.LSN {
	if m.pipe != nil {
		return m.pipe.next()
	}
	return page.LSN(m.nextA.Load())
}

// Durable returns the LSN up to which the log is persistent.
func (m *Manager) Durable() page.LSN { return page.LSN(m.durableA.Load()) }

// Forces returns the number of Force flush rounds that performed device
// I/O.
func (m *Manager) Forces() int64 { return m.forcesA.Load() }

// Pipelined reports whether the lock-free front end is active.
func (m *Manager) Pipelined() bool { return m.pipe != nil }

// SetGroupCommitWindow sets the collection window for coalescing commit
// forces.  Zero (the default) disables batching: every Force that finds
// the log short of its LSN triggers an immediate flush round.  The engine
// enables a small window under the multi-writer scheduler, where
// concurrent committers can actually fill a batch.
func (m *Manager) SetGroupCommitWindow(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.gcWindowNS.Store(int64(d))
}

// AddCommitter adjusts the number of registered committers (transactions
// currently able to request a commit force).  A collecting flush round
// completes early once every registered committer has joined, so
// single-writer phases pay no window latency.
func (m *Manager) AddCommitter(delta int) {
	m.committers.Add(int64(delta))
	if m.pipe != nil {
		m.pipe.kick()
		return
	}
	m.mu.Lock()
	m.checkBatchFullLocked()
	m.mu.Unlock()
}

// SetCommitters sets a static expected-committer count that overrides the
// dynamic AddCommitter tally while non-zero.  Multi-terminal drivers set
// it to their terminal count for the duration of a run: the first commit
// force then opens a collection window even before a second committer has
// physically arrived, which is what makes batches fill on machines where
// goroutines rarely overlap (GOMAXPROCS=1).  Set it back to zero when the
// run ends.
func (m *Manager) SetCommitters(n int) {
	if n < 0 {
		n = 0
	}
	m.committersHint.Store(int64(n))
	if m.pipe != nil {
		// A fresh expectation invalidates any stale-solo verdict.
		m.pipe.resetSolo()
		m.pipe.kick()
		return
	}
	m.mu.Lock()
	m.gcSolo = 0
	m.checkBatchFullLocked()
	m.mu.Unlock()
}

// CommittersHint returns the static expected-committer count (zero when
// unset).  Callers that set a temporary hint restore the previous value.
func (m *Manager) CommittersHint() int { return int(m.committersHint.Load()) }

// dynCommitters returns the dynamic committer tally, floored at zero.
func (m *Manager) dynCommitters() int {
	n := m.committers.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// effectiveCommitters returns the committer count batching decisions use:
// the static hint when set, the dynamic tally otherwise.
func (m *Manager) effectiveCommitters() int {
	if h := m.committersHint.Load(); h > 0 {
		return int(h)
	}
	return m.dynCommitters()
}

// GroupCommitStats returns the batching counters of the commit-force
// coalescing protocol.
func (m *Manager) GroupCommitStats() metrics.GroupCommitStats {
	return metrics.GroupCommitStats{
		Requests:    m.gcRequests.Load(),
		Forces:      m.forcesA.Load(),
		Piggybacked: m.gcPiggybacked.Load(),
	}
}

// Stats returns the commit-pipeline counters.  All sources are atomics, so
// sampling never contends with appenders or the syncer.
func (m *Manager) Stats() metrics.WalStats {
	return metrics.WalStats{
		Appends:        m.appends.Load(),
		ReserveStalls:  m.reserveStalls.Load(),
		CopyWaits:      m.copyWaits.Load(),
		CopyWaitTime:   time.Duration(m.copyWaitNS.Load()),
		ForceRequests:  m.gcRequests.Load(),
		Forces:         m.forcesA.Load(),
		Piggybacked:    m.gcPiggybacked.Load(),
		Syncs:          m.syncCount.Load(),
		SyncTime:       time.Duration(m.syncNS.Load()),
		DurableWaits:   m.durableWaits.Load(),
		TornSlotWrites: m.tornSlotWrites.Load(),
	}
}

// LogCheckpointBegin appends a checkpoint-begin record and returns its LSN.
func (m *Manager) LogCheckpointBegin() (page.LSN, error) {
	return m.Append(&Record{Type: TypeCheckpointBegin})
}

// LogCheckpointEnd appends a checkpoint-end record referring to beginLSN,
// forces the log, and durably records beginLSN as the most recent completed
// checkpoint in the control block.
func (m *Manager) LogCheckpointEnd(beginLSN page.LSN) error {
	if _, err := m.Append(&Record{Type: TypeCheckpointEnd, After: EncodeLSN(beginLSN)}); err != nil {
		return err
	}
	if err := m.ForceAll(); err != nil {
		return err
	}
	m.lastCheckpoint.Store(uint64(beginLSN))
	return m.writeControl()
}

// LastCheckpoint returns the LSN of the begin record of the most recent
// completed checkpoint, or 0 when no checkpoint has completed.
func (m *Manager) LastCheckpoint() page.LSN {
	return page.LSN(m.lastCheckpoint.Load())
}

// Crash simulates a process failure: all non-durable log records are lost.
// The manager must not be used afterwards; reopen the log with Open.
func (m *Manager) Crash() {
	m.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending = nil
	m.partial = nil
	m.nextA.Store(m.durableA.Load())
}

// Iterate replays durable log records with LSN >= from, in order.  The
// callback receives each decoded record; iteration stops at the durable end
// of the log or when the callback returns an error.
func (m *Manager) Iterate(from page.LSN, fn func(*Record) error) error {
	durable := m.Durable()
	if from < m.base {
		from = m.base
	}
	if from >= durable {
		return nil
	}

	startBlk := int64(m.off(from)/device.BlockSize) + controlBlocks
	endBlk := int64((m.off(durable)+device.BlockSize-1)/device.BlockSize) + controlBlocks
	// Read the durable region sequentially in one run (recovery reads the
	// log front to back, as a real system would).
	var stream []byte
	n := int(endBlk - startBlk)
	err := m.dev.ReadRun(startBlk, n, func(i int, p []byte) error {
		stream = append(stream, p...)
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal: reading log: %w", err)
	}
	// Clip to the durable byte range.
	skip := int(m.off(from) % device.BlockSize)
	limit := int(durable - from)
	if skip >= len(stream) {
		return nil
	}
	stream = stream[skip:]
	if limit < len(stream) {
		stream = stream[:limit]
	}

	offset := from
	for len(stream) > 0 {
		rec, consumed, err := decodeRecord(stream)
		if errors.Is(err, ErrTruncated) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("wal: at LSN %d: %w", offset, err)
		}
		rec.LSN = offset
		if err := fn(rec); err != nil {
			return err
		}
		stream = stream[consumed:]
		offset += page.LSN(consumed)
	}
	return nil
}
