package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// format (operation-list update records, format records that carry a new
// page's contents, two log tail entries).  Magics from oldestControlMagic
// up to it were written by earlier formats — single-range update records,
// then a two-block double-write slot, then byte-diff edit lists, then
// format records of an empty page only — which this code cannot read.
const (
	controlMagic       = 0xFACE10C4
	oldestControlMagic = 0xFACE10C0
)

// ErrOldFormat is returned by Open for a log written in an earlier format.
// Restart the version that wrote it, close the database cleanly (so nothing
// in the log is needed any more) and start over with a fresh log device.
var ErrOldFormat = errors.New("wal: log was written in an older format")

// Default commit-pipeline geometry: the in-memory log buffer is a ring of
// DefaultSegments segments of DefaultSegmentBytes each that committers
// reserve space in with one CAS and fill without holding any lock.
// minSegments is the smallest ring Config accepts.
const (
	DefaultSegments     = 8
	DefaultSegmentBytes = 64 << 10
	minSegments         = 2
)

// Config sets the geometry of the in-memory log buffer; the zero value
// selects the defaults.  Tests shrink it to make the ring wrap and stall.
type Config struct {
	// Segments is the number of ring segments (0 = DefaultSegments, otherwise
	// at least minSegments).
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
// The front end is a three-stage pipeline in the Aether /
// scalable-ARIES-logging style: Append performs an atomic LSN/space
// reservation on a ring of buffer segments (one CAS, no lock), copies the
// record bytes into the reserved slot in parallel with other appenders, and
// publishes completion; a high-water mark — the largest LSN below which
// every copy has landed — replaces the mutex-guarded tail (reserve.go).
// Force parks the caller on a durable-LSN waitlist serviced by a dedicated
// syncer goroutine that coalesces concurrent requests into one device
// write + fsync round (syncer.go).  Nothing times a batch: the forces that
// arrive while one round's barrier is in flight are the next round's batch
// (collect), so the log device alone paces group commit.  On devices with a
// real durability barrier a round is one write and one barrier: the partial
// tail block goes to whichever of two entries at the end of the device does
// not hold the newest durable image, so a torn 4 KiB write cannot clip
// acknowledged records (tornslot.go).
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
	// (device.Syncer) and room for the log tail entries: the partial tail
	// block then goes to an entry, not in place.  dataBlocks is the device
	// capacity available to log data (the entry blocks at the device end
	// are excluded).
	protect    bool
	dataBlocks int64
	// Log tail entry state (tornslot.go), owned by the flushing goroutine:
	// the entry under construction, the last sequence number used, the
	// index of the entry holding the newest image a successful barrier
	// covered, and whether the other entry has been written since.
	tailBuf     []byte
	tailSeq     uint64
	tailDurable int
	tailPending bool

	// Hot read-only state is atomic so stats sampling (engine.Snapshot)
	// never contends with the commit path.
	durableA       atomic.Uint64 // LSN up to which the log is on the device
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

	// committers is the number of registered committers (AddCommitter):
	// transactions that may yet request a commit force.  The syncer yields
	// its processor to them before a round (collect).
	committers atomic.Int64

	closed atomic.Bool

	// pipe is the reservation ring and the syncer's state (reserve.go,
	// syncer.go).
	pipe *pipeline
}

// Open creates a manager with the default configuration on the given log
// device.  If the device contains an initialised control block, the
// existing log is preserved and the manager resumes appending after its
// durable end; otherwise a fresh log is initialised.
func Open(dev device.Dev) (*Manager, error) { return OpenConfig(dev, Config{}) }

// OpenConfig is Open with an explicit log buffer geometry.  A geometry it
// rejects is reported before the device is read or written.
func OpenConfig(dev device.Dev, cfg Config) (*Manager, error) {
	if cfg.Segments == 0 {
		cfg.Segments = DefaultSegments
	}
	if cfg.Segments < minSegments {
		return nil, fmt.Errorf("wal: Segments must be at least %d (got %d)", minSegments, cfg.Segments)
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	m := &Manager{dev: dev, dataBlocks: dev.NumBlocks()}
	if _, ok := dev.(device.Syncer); ok && dev.NumBlocks() >= controlBlocks+tornSlotBlocks+1 {
		m.protect = true
		m.dataBlocks -= tornSlotBlocks
		m.tailBuf = make([]byte, tailEntryBlocks*device.BlockSize)
	}
	ctrl := make([]byte, device.BlockSize)
	if err := dev.ReadAt(0, ctrl); err != nil {
		return nil, fmt.Errorf("wal: reading control block: %w", err)
	}
	switch magic := binary.LittleEndian.Uint32(ctrl[0:]); {
	case magic >= oldestControlMagic && magic < controlMagic:
		return nil, fmt.Errorf("%w (control magic %#x, this version reads %#x)", ErrOldFormat, magic, uint32(controlMagic))
	case magic == controlMagic:
		m.lastCheckpoint.Store(binary.LittleEndian.Uint64(ctrl[4:]))
		m.base = page.LSN(binary.LittleEndian.Uint64(ctrl[20:]))
		// Copy the log tail entries into place before trusting anything
		// the end-of-log scan reads.
		newest, err := m.repairTail()
		if err != nil {
			return nil, err
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
		partial, err := m.loadPartial()
		if err != nil {
			return nil, err
		}
		if err := m.stageRecoveredTail(newest, partial); err != nil {
			return nil, err
		}
		return m.start(cfg, partial)
	}
	// Fresh log.  An entry of an earlier log on the same device must not
	// repair a block of this one: the entries go before the log exists.
	if m.protect {
		if err := m.invalidateTailEntries(); err != nil {
			return nil, err
		}
	}
	if err := m.writeControl(); err != nil {
		return nil, err
	}
	return m.start(cfg, nil)
}

// start brings up the ring and the syncer once the on-device state has been
// recovered; partial holds the bytes of the last durable block that precede
// the durable end, which the first flush rewrites with what follows them.
func (m *Manager) start(cfg Config, partial []byte) (*Manager, error) {
	p, err := newPipeline(m, cfg.Segments, cfg.SegmentBytes, partial)
	if err != nil {
		return nil, err
	}
	m.pipe = p
	go p.syncerLoop()
	return m, nil
}

// Close stops the syncer goroutine.  It does not force the log: callers
// that need the tail durable force it first (the engine checkpoints on
// Close).  Idempotent.
func (m *Manager) Close() error {
	if !m.closed.Swap(true) {
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
// meaningful.  It fails once anything has been appended, and must not run
// beside an Append.
func (m *Manager) SetStart(lsn page.LSN) error {
	if m.Next() != m.base || m.Durable() != m.base {
		return fmt.Errorf("wal: SetStart on a non-empty log (next %d, base %d)", m.Next(), m.base)
	}
	if lsn < m.base {
		return nil
	}
	m.base = lsn
	m.durableA.Store(uint64(lsn))
	return m.writeControl()
}

// loadPartial reads the bytes of the partially filled last durable block so
// the first flush can rewrite it.
func (m *Manager) loadPartial() ([]byte, error) {
	rem := int(m.off(m.Durable()) % device.BlockSize)
	if rem == 0 {
		return nil, nil
	}
	blk := int64(m.off(m.Durable())/device.BlockSize) + controlBlocks
	buf := make([]byte, device.BlockSize)
	if err := m.dev.ReadAt(blk, buf); err != nil {
		return nil, fmt.Errorf("wal: reading partial tail block: %w", err)
	}
	return buf[:rem], nil
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

// writeBlocks writes a run of log blocks of which the last holds tailUsed
// bytes (0 = it is full); on a device without atomic block writes a partial
// last block goes to a log tail entry, not in place.
func (m *Manager) writeBlocks(startBlk int64, pages [][]byte, tailUsed int) error {
	if startBlk+int64(len(pages)) > m.dataBlocks {
		return fmt.Errorf("wal: log device full (%d blocks)", m.dataBlocks)
	}
	var tail []byte
	if m.protect && tailUsed > 0 {
		tail = pages[len(pages)-1][:tailUsed]
		pages = pages[:len(pages)-1]
	}
	if len(pages) > 0 {
		if err := m.dev.WriteRun(startBlk, pages); err != nil {
			return fmt.Errorf("wal: flushing log: %w", err)
		}
	}
	if tail != nil {
		return m.writeTailEntry(startBlk+int64(len(pages)), tail)
	}
	return nil
}

// syncDevice issues the durability barrier and accounts for it.  Flusher
// only: success makes the entry written since the last barrier the newest
// durable image of the log tail.
func (m *Manager) syncDevice() error {
	start := time.Now()
	err := device.Sync(m.dev)
	m.syncCount.Add(1)
	m.syncNS.Add(int64(time.Since(start)))
	if err == nil && m.tailPending {
		m.tailDurable ^= 1
		m.tailPending = false
	}
	return err
}

// Append adds a record to the log tail and returns its LSN.  The record is
// not durable until Force is called with an LSN past it.  Append acquires
// no mutex: it reserves log space with one CAS and copies the record bytes
// concurrently with other appenders.
func (m *Manager) Append(r *Record) (page.LSN, error) {
	lsn, _, err := m.append(r, false)
	return lsn, err
}

// AppendTimed is Append that also reports when the record's reservation
// stalled on a full log buffer: the time from then until it returned is
// what the append cost beyond a copy.  An append that did not stall reads
// no clock and reports the zero time.
func (m *Manager) AppendTimed(r *Record) (lsn page.LSN, stalled time.Time, err error) {
	return m.append(r, true)
}

func (m *Manager) append(r *Record, timed bool) (page.LSN, time.Time, error) {
	if err := r.check(); err != nil {
		return 0, time.Time{}, err
	}
	return m.pipe.append(r, timed)
}

// Force makes the log durable at least up to lsn.  It is a no-op when the
// log is already durable past lsn.  Concurrent callers are coalesced: they
// park on the syncer's durable-LSN waitlist and one flush round covers the
// maximum requested LSN.
func (m *Manager) Force(lsn page.LSN) error { return m.pipe.force(lsn) }

// ForceAll makes the entire log tail durable.
func (m *Manager) ForceAll() error { return m.pipe.force(m.Next()) }

// Next returns the LSN that will be assigned to the next appended record.
func (m *Manager) Next() page.LSN { return m.pipe.next() }

// Durable returns the LSN up to which the log is persistent.
func (m *Manager) Durable() page.LSN { return page.LSN(m.durableA.Load()) }

// Forces returns the number of Force flush rounds that performed device
// I/O.
func (m *Manager) Forces() int64 { return m.forcesA.Load() }

// AddCommitter adjusts the number of registered committers (transactions
// currently able to request a commit force).  Before a round the syncer
// yields while that many have not parked and each yield brings one in.
func (m *Manager) AddCommitter(delta int) { m.committers.Add(int64(delta)) }

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
func (m *Manager) Crash() { m.Close() }

// Iterate replays durable log records with LSN >= from, in order.  The
// callback receives each decoded record; iteration stops at the durable end
// of the log or when the callback returns an error.  It reads log blocks
// only: on a device with a barrier, what was forced since Open into the
// partial tail block is in a log tail entry until the next Open.
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
