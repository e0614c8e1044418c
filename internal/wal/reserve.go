package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/reprolab/face/internal/page"
)

// Lock-free log-space reservation (pipeline stage 1).
//
// The log buffer is a contiguous ring.  A single packed position word holds
// {reservation index : 24 bits | byte offset : 40 bits}; Append reserves
// space with one CAS that bumps both fields, copies the encoded record into
// the ring with no lock held, then publishes completion into a slot ring
// tagged with the reservation's generation.  The syncer consumes slots in
// reservation order to advance the high-water mark — the byte offset below
// which every copy has landed — which replaces the mutex-guarded tail.

const (
	// The position word gives 40 bits to the byte offset (1 TiB of log
	// appended through one manager instance) and 24 bits to the
	// reservation index (used modulo 2^24 to tag publication slots).
	posOffBits = 40
	posOffMask = (uint64(1) << posOffBits) - 1
	posIdxMask = (uint64(1) << 24) - 1
)

// errClosed is returned by operations on a closed or crashed manager.
var errClosed = errors.New("wal: manager closed")

// waiter is one parked Force call: the caller blocks on ch until the log
// is durable past lsn (nil) or the flush fails (the error).
type waiter struct {
	lsn page.LSN
	ch  chan error
}

// errBox wraps an error for atomic.Pointer publication.
type errBox struct{ err error }

// pipeline is the log's front end: reservation ring + publication
// slots + the syncer goroutine's state.
type pipeline struct {
	m *Manager

	ring      []byte
	ringBytes uint64 // power of two
	ringMask  uint64

	// pos is the packed reservation word (index | offset).
	pos atomic.Uint64

	// slots publish copy completion: slot[F % nSlots] is set to
	// gen(F)<<40 | endOffset when reservation F's bytes have landed,
	// where gen(F) = (F / nSlots) + 1 truncated to 24 bits.  nSlots
	// strictly exceeds the maximum number of in-flight reservations
	// (ringBytes / minimum record size), so a generation tag can never
	// be reused while its slot is unconsumed.
	slots    []atomic.Uint64
	slotMask uint64
	slotLog2 uint

	// consumed mirrors the syncer's consumed-reservation count so
	// appenders can recover their full reservation index from its low
	// 24 bits (the in-flight window is far smaller than 2^24).
	consumed atomic.Uint64

	// flushedOff is the unwrapped byte offset written to the device.
	// The syncer stores it after a successful write; appenders load it
	// to bound ring reuse (a reservation must keep [flushedOff, end)
	// within ringBytes).
	flushedOff atomic.Uint64

	// flushErr latches the first device-write failure (e.g. log full).
	// Appends stalled on a ring that can no longer drain fail with it.
	flushErr atomic.Pointer[errBox]

	// flushWanted asks the syncer for a write-only round (ring full); the
	// reservers that asked sleep on space until flushedOff moves, the flush
	// error latches or the manager stops (space.L guards only the wait).
	flushWanted atomic.Bool
	space       *sync.Cond

	// collecting is set while the syncer sits in its collection window,
	// the only time a change of the committer count must wake it.
	collecting atomic.Bool

	stopped atomic.Bool

	// sy guards the durable-LSN waitlist — the only lock on the force
	// path, held just to enqueue (never across I/O or appends).
	sy struct {
		sync.Mutex
		waiters []waiter
	}
	kickCh chan struct{}
	quitCh chan struct{}
	doneCh chan struct{}

	// Syncer-owned (single goroutine, no locking): the next reservation
	// index to consume, the published high-water mark, the bytes of the
	// last flushed block preceding flushedOff, and the block images of the
	// flush in progress (flushPages slices flushBuf into device blocks).
	consumedIdx uint64
	hwmOff      uint64
	partial     []byte
	flushBuf    []byte
	flushPages  [][]byte
}

// encPool recycles record-encoding scratch buffers.
var encPool = sync.Pool{New: func() any { return new([]byte) }}

func nextPow2(v uint64) uint64 {
	n := uint64(1)
	for n < v {
		n <<= 1
	}
	return n
}

func newPipeline(m *Manager, segments, segmentBytes int, partial []byte) (*pipeline, error) {
	ringBytes := nextPow2(uint64(segments) * uint64(segmentBytes))
	if ringBytes < 4096 {
		ringBytes = 4096
	}
	// One slot per 16 ring bytes strictly exceeds the in-flight bound
	// (no record is smaller than recordHeaderSize = 25 bytes).
	nSlots := nextPow2(ringBytes / 16)
	if nSlots < 64 {
		nSlots = 64
	}
	if nSlots > posIdxMask/2 {
		return nil, fmt.Errorf("wal: ring of %d bytes too large", ringBytes)
	}
	p := &pipeline{
		m:         m,
		ring:      make([]byte, ringBytes),
		ringBytes: ringBytes,
		ringMask:  ringBytes - 1,
		slots:     make([]atomic.Uint64, nSlots),
		slotMask:  nSlots - 1,
		space:     sync.NewCond(new(sync.Mutex)),
		kickCh:    make(chan struct{}, 1),
		quitCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	for nSlots > 1 {
		nSlots >>= 1
		p.slotLog2++
	}
	// The manager recovered the durable tail before the pipeline starts:
	// adopt it as the flushed position and take over the partial block.
	off := m.off(m.Durable())
	p.pos.Store(off & posOffMask)
	p.flushedOff.Store(off)
	p.hwmOff = off
	p.partial = partial
	return p, nil
}

// next returns the next LSN to be assigned.
func (p *pipeline) next() page.LSN {
	return p.m.base + page.LSN(p.pos.Load()&posOffMask)
}

// append reserves log space, copies the record into the ring, and
// publishes completion.  No mutex is acquired anywhere on this path.
func (p *pipeline) append(r *Record) (page.LSN, error) {
	m := p.m
	size := uint64(r.encodedSize())
	if size > p.ringBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte log buffer", size, p.ringBytes)
	}

	// Stage 1a: reserve [off, end) and reservation index idx with one CAS.
	var off, end, idx24 uint64
	stalled := false
	for {
		cur := p.pos.Load()
		off = cur & posOffMask
		end = off + size
		if end > posOffMask {
			return 0, fmt.Errorf("wal: log address space exhausted")
		}
		// Admission: a successful reservation must fit in the ring
		// alongside everything not yet flushed, so every admitted copy
		// can complete without waiting on another appender.  cur may be
		// stale, its end already flushed past: the sum, unlike end-flushed,
		// cannot wrap into a full ring, and the CAS below then fails.
		if flushed := p.flushedOff.Load(); end > flushed+p.ringBytes {
			if b := p.flushErr.Load(); b != nil {
				return 0, b.err
			}
			if p.stopped.Load() {
				return 0, errClosed
			}
			if !stalled {
				stalled = true
				m.reserveStalls.Add(1)
			}
			// Sleep until a round has freed ring space (or none ever
			// will); re-reading under the lock loses no wake-up.  The
			// sleep waits on the flushed offset the admission test read:
			// a flush that lands after that read, and may leave the ring
			// empty so that the round kicked here has nothing to write,
			// must stop the sleep too.
			p.kickFlush()
			p.space.L.Lock()
			if p.flushedOff.Load() == flushed && p.flushErr.Load() == nil && !p.stopped.Load() {
				p.space.Wait()
			}
			p.space.L.Unlock()
			continue
		}
		// Bump index (bits 40+) and offset (low bits) together; offsets
		// cannot carry into the index field (end <= posOffMask).
		if p.pos.CompareAndSwap(cur, cur+(uint64(1)<<posOffBits)+size) {
			idx24 = cur >> posOffBits
			break
		}
	}

	// Stage 1b: encode and copy into the ring — in parallel with other
	// appenders, no lock held.
	bufp := encPool.Get().(*[]byte)
	enc := r.encode((*bufp)[:0])
	pos := off & p.ringMask
	n := copy(p.ring[pos:], enc)
	if n < len(enc) {
		copy(p.ring, enc[n:])
	}
	*bufp = enc[:0]
	encPool.Put(bufp)

	// Stage 1c: publish completion.  Recover the full reservation index
	// from its 24-bit tag and the syncer's consumed count (always at most
	// 2^24 behind), then tag the slot with this index's generation.
	c := p.consumed.Load()
	full := c + ((idx24 - c) & posIdxMask)
	gen := ((full >> p.slotLog2) + 1) & posIdxMask
	p.slots[full&p.slotMask].Store(gen<<posOffBits | end&posOffMask)

	r.LSN = m.base + page.LSN(off)
	m.appends.Add(1)
	return r.LSN, nil
}

// advanceHWM consumes publication slots in reservation order, advancing
// the high-water mark.  Syncer-only.
func (p *pipeline) advanceHWM() {
	for {
		i := p.consumedIdx
		want := ((i >> p.slotLog2) + 1) & posIdxMask
		v := p.slots[i&p.slotMask].Load()
		if v>>posOffBits != want {
			return
		}
		p.hwmOff = v & posOffMask
		p.consumedIdx = i + 1
		p.consumed.Store(i + 1)
	}
}

// kick nudges the syncer; a buffered token makes wakeups lossless without
// blocking the committer.
func (p *pipeline) kick() {
	select {
	case p.kickCh <- struct{}{}:
	default:
	}
}

// kickFlush asks for a write-only round to recycle ring space.
func (p *pipeline) kickFlush() {
	p.flushWanted.Store(true)
	p.kick()
}

// wakeReservers wakes the appenders stalled on a full ring.
func (p *pipeline) wakeReservers() {
	p.space.L.Lock()
	p.space.Broadcast()
	p.space.L.Unlock()
}
