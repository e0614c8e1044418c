package wal

import (
	"runtime"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// The syncer (pipeline stage 2): a dedicated goroutine that owns all log
// device I/O.  Force callers park on a durable-LSN waitlist; the syncer
// takes whatever parked while the previous round's barrier was in flight
// and lets running committers reach it (collect), then performs one write
// covering the high-water mark and one durability barrier, and wakes every
// waiter at or below the new durable LSN.  No timer paces a round, on any
// device, and no lock is held across device I/O.

// force implements Force/ForceAll.
func (p *pipeline) force(lsn page.LSN) error {
	m := p.m
	if n := p.next(); lsn > n {
		lsn = n
	}
	if lsn <= m.Durable() {
		return nil
	}
	if p.stopped.Load() {
		return errClosed
	}
	m.gcRequests.Add(1)
	w := waiter{lsn: lsn, ch: make(chan error, 1)}
	p.sy.Lock()
	p.sy.waiters = append(p.sy.waiters, w)
	p.sy.Unlock()
	m.durableWaits.Add(1)
	p.kick()
	return <-w.ch
}

// takeWaiters drains the waitlist.
func (p *pipeline) takeWaiters() []waiter {
	p.sy.Lock()
	ws := p.sy.waiters
	p.sy.waiters = nil
	p.sy.Unlock()
	return ws
}

// stop shuts the syncer down and fails anything still parked.
func (p *pipeline) stop() {
	p.stopped.Store(true)
	p.wakeReservers()
	close(p.quitCh)
	<-p.doneCh
	// A force that raced stop() may have enqueued after the syncer's
	// final drain.
	p.failWaiters(p.takeWaiters(), errClosed)
}

func (p *pipeline) failWaiters(ws []waiter, err error) {
	for _, w := range ws {
		w.ch <- err
	}
}

func (p *pipeline) syncerLoop() {
	defer close(p.doneCh)
	for {
		select {
		case <-p.quitCh:
			p.failWaiters(p.takeWaiters(), errClosed)
			return
		case <-p.kickCh:
		}
		for {
			ws := p.takeWaiters()
			wanted := p.flushWanted.Swap(false)
			if len(ws) == 0 && !wanted {
				break
			}
			if len(ws) > 0 {
				ws = p.collect(ws)
			}
			p.runRound(ws, wanted)
		}
	}
}

// collect gathers what one round covers beyond the forces already taken:
// the forces that parked while the previous round's barrier was in flight.
// Nothing is timed.  Before the syncer takes its processor into the next
// write and barrier it yields it while a registered committer has not
// parked and each yield brings one in — the committers the last round woke
// run instead of sitting in the run queue of a processor blocked in a
// system call, and a commit about to park joins this round, not the next;
// an idle processor returns from the yield at once.
func (p *pipeline) collect(ws []waiter) []waiter {
	for more := ws; len(more) > 0 && int64(len(ws)) < p.m.committers.Load(); ws = append(ws, more...) {
		runtime.Gosched()
		more = p.takeWaiters()
	}
	return ws
}

// runRound performs one flush round: wait for the copies below the target
// to land, write the ring delta to the device, issue the barrier, wake the
// waiters.  Write errors latch flushErr (the ring can no longer drain);
// barrier errors are returned to this round's waiters and leave durable
// unmoved, so a later round can retry.  drain: a stalled reserver asked.
func (p *pipeline) runRound(ws []waiter, drain bool) {
	m := p.m

	// Requests already covered by a previous round ride for free.
	durable := m.Durable()
	remaining := ws[:0]
	for _, w := range ws {
		if w.lsn <= durable {
			w.ch <- nil
			m.gcPiggybacked.Add(1)
		} else {
			remaining = append(remaining, w)
		}
	}

	// Stage 2a: wait for the copies this round must cover.  The target is
	// the maximum requested LSN; the flush itself extends to the current
	// high-water mark (covering it costs nothing extra).
	p.advanceHWM()
	if len(remaining) > 0 {
		target := remaining[0].lsn
		for _, w := range remaining[1:] {
			if w.lsn > target {
				target = w.lsn
			}
		}
		if targetOff := m.off(target); p.hwmOff < targetOff {
			m.copyWaits.Add(1)
			start := time.Now()
			for p.hwmOff < targetOff {
				runtime.Gosched()
				p.advanceHWM()
			}
			m.copyWaitNS.Add(int64(time.Since(start)))
		}
	}

	// A stalled reserver sleeps until a flush frees ring space: when every
	// unflushed byte lies behind a copy still in flight, wait for the copy.
	for flushed := p.flushedOff.Load(); drain && p.hwmOff == flushed && p.pos.Load()&posOffMask > flushed; {
		runtime.Gosched()
		p.advanceHWM()
	}

	// Stage 2b: write the ring delta [flushed, hwm) — for somebody: a round
	// whose waiters an earlier round already covered writes nothing.
	didIO := false
	hwm := p.hwmOff
	if flushed := p.flushedOff.Load(); hwm > flushed && (drain || len(remaining) > 0) {
		if err := p.flushTo(flushed, hwm); err != nil {
			p.flushErr.CompareAndSwap(nil, &errBox{err: err})
			p.wakeReservers()
			p.failWaiters(remaining, err)
			return
		}
		didIO = true
	}
	if len(remaining) == 0 {
		return // ring-drain round: no barrier needed, nothing waits
	}

	// Stage 2c: the durability barrier, never under any lock.
	if flushed := p.flushedOff.Load(); uint64(m.Durable()-m.base) < flushed {
		if err := m.syncDevice(); err != nil {
			// Durable stays put; the flushed-but-unsynced bytes are
			// retried by the next round's barrier.
			p.failWaiters(remaining, err)
			return
		}
		m.durableA.Store(uint64(m.base) + flushed)
		didIO = true
	}
	if didIO {
		m.forcesA.Add(1)
		m.gcPiggybacked.Add(int64(len(remaining) - 1))
	}
	for _, w := range remaining {
		w.ch <- nil
	}
}

// flushTo writes ring bytes [flushed, hwm) to the device as whole blocks
// that begin with the previous flush's partial tail block (a block still
// partial goes to a log tail entry on devices with a barrier, see
// writeBlocks), and carries the new partial tail forward.  Syncer-only.
func (p *pipeline) flushTo(flushed, hwm uint64) error {
	m := p.m
	// The block images live in a buffer the syncer owns and reuses: every
	// device copies what it is handed before WriteRun returns.
	n := hwm - flushed
	nBlocks := (len(p.partial) + int(n) + device.BlockSize - 1) / device.BlockSize
	need := nBlocks * device.BlockSize
	if cap(p.flushBuf) < need {
		p.flushBuf = make([]byte, need)
	}
	data := p.flushBuf[:need]
	at := copy(data, p.partial)
	lo := flushed & p.ringMask
	if lo+n <= p.ringBytes {
		at += copy(data[at:], p.ring[lo:lo+n])
	} else {
		at += copy(data[at:], p.ring[lo:])
		at += copy(data[at:], p.ring[:hwm&p.ringMask])
	}
	clear(data[at:])

	startBlk := int64(flushed/device.BlockSize) + controlBlocks
	p.flushPages = p.flushPages[:0]
	for i := 0; i < nBlocks; i++ {
		p.flushPages = append(p.flushPages, data[i*device.BlockSize:(i+1)*device.BlockSize])
	}
	rem := int(hwm % device.BlockSize)
	if err := m.writeBlocks(startBlk, p.flushPages, rem); err != nil {
		return err
	}
	p.partial = append(p.partial[:0], data[need-device.BlockSize:][:rem]...)
	// Publishing the new flushed offset releases the ring space to
	// appenders (their admission load pairs with this store).
	p.flushedOff.Store(hwm)
	p.wakeReservers()
	return nil
}
