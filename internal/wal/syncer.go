package wal

import (
	"runtime"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// The syncer (pipeline stage 2): a dedicated goroutine that owns all log
// device I/O.  Force callers park on a durable-LSN waitlist; the syncer
// coalesces the parked requests — applying the group-commit collection
// window and the stale-hint solo heuristic exactly as the compat front end
// does — then performs one block write covering the high-water mark and
// one durability barrier, and wakes every waiter at or below the new
// durable LSN.  fsync therefore never runs under any append-path lock.

// force implements Force/ForceAll for the pipeline front end.
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
			p.runRound(ws)
		}
	}
}

// collect applies the group-commit collection window: with a window set
// and more than one expected committer, the round waits — up to the
// window — for the remaining committers to park, so one barrier covers
// them all.  The solo-streak heuristic from the compat front end decides
// when a stale hint should stop the waiting.
func (p *pipeline) collect(ws []waiter) []waiter {
	m := p.m
	window := time.Duration(m.gcWindowNS.Load())
	eff := m.effectiveCommitters()
	if window <= 0 || eff <= 1 || !m.shouldCollectSolo(int(p.gcSolo.Load())) {
		return ws
	}
	timer := time.NewTimer(window)
	defer timer.Stop()
	for len(ws) < eff {
		select {
		case <-timer.C:
			return ws
		case <-p.quitCh:
			return ws
		case <-p.kickCh:
			ws = append(ws, p.takeWaiters()...)
			// AddCommitter/SetCommitters kick too: re-read the target.
			if eff = m.effectiveCommitters(); eff <= 1 {
				return ws
			}
		}
	}
	return ws
}

// runRound performs one flush round: wait for the copies below the target
// to land, write the ring delta to the device, issue the barrier, wake the
// waiters.  Write errors latch flushErr (the ring can no longer drain);
// barrier errors are returned to this round's waiters and leave durable
// unmoved, so a later round can retry.
func (p *pipeline) runRound(ws []waiter) {
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

	// Stage 2b: write the ring delta [flushed, hwm).
	didIO := false
	hwm := p.hwmOff
	if flushed := p.flushedOff.Load(); hwm > flushed {
		if err := p.flushTo(flushed, hwm); err != nil {
			p.flushErr.CompareAndSwap(nil, &errBox{err: err})
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

	// Solo-streak accounting, mirroring the compat front end: a round
	// that batched resets the streak; a lone committer that could have
	// batched extends it.
	window := time.Duration(m.gcWindowNS.Load())
	if len(remaining) > 1 {
		p.gcSolo.Store(0)
	} else if window > 0 && m.dynCommitters() >= 1 && m.effectiveCommitters() > 1 {
		p.gcSolo.Add(1)
	}
}

// flushTo writes ring bytes [flushed, hwm) to the device as whole blocks,
// rewriting the partial tail block (staged through the torn-tail slot on
// devices with a durability barrier) and carrying the new partial tail
// forward.  Syncer-only.
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
	if err := m.writeBlocks(startBlk, p.flushPages, len(p.partial) > 0); err != nil {
		return err
	}
	rem := int(hwm % device.BlockSize)
	p.partial = append(p.partial[:0], data[need-device.BlockSize:][:rem]...)
	// Publishing the new flushed offset releases the ring space to
	// appenders (their admission load pairs with this store).
	p.flushedOff.Store(hwm)
	return nil
}
