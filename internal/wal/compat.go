package wal

import (
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// Mutex-compat front end (Config{Segments: 1}).
//
// This is the pre-pipeline log path, kept as the ablation baseline and as
// the simplest-possible reference implementation: one mutex serializes
// Append and Force, and the leader/follower group-commit protocol batches
// concurrent forces.  It shares the on-device format, the log tail entries,
// the collection-window rule and the stats counters with the pipeline front
// end.

// forceBatch is one group-commit round: the leader's collection state and
// the channel its followers wait on.
type forceBatch struct {
	// requests counts the callers riding this batch, the leader included.
	requests int
	// full is closed (once) when every registered committer has joined,
	// letting the leader cut its collection window short.
	full       chan struct{}
	fullClosed bool
	// done is closed after the leader's device write; err carries its
	// outcome to the followers.
	done chan struct{}
	err  error
}

// checkBatchFullLocked completes the collecting batch early when every
// expected committer has joined it.
func (m *Manager) checkBatchFullLocked() {
	n := m.effectiveCommitters()
	if b := m.batch; b != nil && !b.fullClosed && n > 0 && b.requests >= n {
		b.fullClosed = true
		close(b.full)
	}
}

// appendCompat implements Append under the mutex front end.
func (m *Manager) appendCompat(r *Record) (page.LSN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r.LSN = m.Next()
	m.pending = r.encode(m.pending)
	m.nextA.Store(uint64(r.LSN) + uint64(r.encodedSize()))
	m.appends.Add(1)
	return r.LSN, nil
}

// forceLocked implements Force.  m.mu is held on entry and return; it is
// released while the caller sleeps on a batch and while a leader sits in
// its collection window (appends proceed in that gap — that is what fills
// the batch), but never during the device write itself.
func (m *Manager) forceLocked(lsn page.LSN) error {
	if lsn > m.Next() {
		lsn = m.Next()
	}
	if lsn <= m.Durable() {
		return nil
	}
	m.gcRequests.Add(1)
	for {
		if lsn <= m.Durable() {
			// Another caller's write covered this request.
			m.gcPiggybacked.Add(1)
			return nil
		}
		if b := m.batch; b != nil {
			// A leader is collecting: join its batch and wait.
			b.requests++
			m.checkBatchFullLocked()
			m.mu.Unlock()
			<-b.done
			m.mu.Lock()
			if b.err != nil {
				return b.err
			}
			continue
		}
		if window := m.collectionWindow(); window > 0 {
			// Become the leader: collect followers for up to the window,
			// or until every registered committer has joined.
			b := &forceBatch{requests: 1, full: make(chan struct{}), done: make(chan struct{})}
			m.batch = b
			timer := time.NewTimer(window)
			m.mu.Unlock()
			select {
			case <-b.full:
			case <-timer.C:
			}
			timer.Stop()
			m.mu.Lock()
			//lint:allow facevet/nolockio compat-mode group commit: the elected leader writes the batched tail under the append mutex by documented design
			err := m.writeTailLocked()
			m.batch = nil
			m.noteBatch(b.requests)
			b.err = err
			close(b.done)
			if err != nil {
				return err
			}
			// writeTailLocked forced everything appended so far, which
			// includes lsn (it was <= next on entry).
			return nil
		}
		// No batching possible (a device with a barrier, no window, no
		// concurrent committers, or a solo streak proved the hint
		// stale): write immediately.
		m.noteBatch(1)
		return m.writeTailLocked()
	}
}

// writeTailLocked writes the whole pending tail to the device, advancing
// durable to the pre-write value of next.  m.mu is held throughout.
func (m *Manager) writeTailLocked() error {
	if len(m.pending) == 0 {
		return nil
	}
	// Flush the whole pending tail: records are appended as units, so
	// flushing to m.next always lands on a record boundary, and a larger
	// sequential write costs essentially the same as a partial one.
	n := len(m.pending)
	data := append(append([]byte(nil), m.partial...), m.pending[:n]...)
	startBlk := int64(m.off(m.Durable()-page.LSN(len(m.partial)))/device.BlockSize) + controlBlocks
	nBlocks := (len(data) + device.BlockSize - 1) / device.BlockSize
	pages := make([][]byte, nBlocks)
	for i := 0; i < nBlocks; i++ {
		blkData := make([]byte, device.BlockSize)
		end := (i + 1) * device.BlockSize
		if end > len(data) {
			end = len(data)
		}
		copy(blkData, data[i*device.BlockSize:end])
		pages[i] = blkData
	}
	if err := m.writeBlocks(startBlk, pages, len(data)%device.BlockSize); err != nil {
		return err
	}
	// The durability barrier comes before durable advances: on file-backed
	// devices Force must not return (and commits must not be acknowledged)
	// until the log bytes are fsynced.  Simulated devices make this a
	// no-op.
	if err := m.syncDevice(); err != nil {
		return err
	}
	m.durableA.Add(uint64(n))
	m.pending = append([]byte(nil), m.pending[n:]...)
	rem := int(m.off(m.Durable()) % device.BlockSize)
	if rem == 0 {
		m.partial = nil
	} else {
		last := pages[nBlocks-1]
		m.partial = append([]byte(nil), last[:rem]...)
	}
	m.forcesA.Add(1)
	return nil
}
