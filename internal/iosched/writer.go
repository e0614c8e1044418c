package iosched

import (
	"sync"

	"github.com/reprolab/face/internal/metrics"
)

// FlushFunc turns one batch of staged items into a flash group write.  It
// is called from the group-writer goroutine only, in ring FIFO order.
type FlushFunc func(batch []Item) error

// GroupWriter is the single background goroutine that drains the staging
// ring and feeds batches to the flash cache core.  Batches are bounded by
// the replacement group size so that one flush maps onto one (or part of
// one) flash group write.
type GroupWriter struct {
	ring  *Ring
	batch int
	flush FlushFunc

	mu      sync.Mutex
	idle    *sync.Cond
	err     error
	stopped bool
	done    chan struct{}

	batches    int64
	batchPages int64
}

// NewGroupWriter starts the group-writer goroutine.  batch bounds the
// number of staged pages per flush.
func NewGroupWriter(ring *Ring, batch int, flush FlushFunc) *GroupWriter {
	if batch < 1 {
		batch = 1
	}
	w := &GroupWriter{
		ring:  ring,
		batch: batch,
		flush: flush,
		done:  make(chan struct{}),
	}
	w.idle = sync.NewCond(&w.mu)
	go w.run()
	return w
}

func (w *GroupWriter) run() {
	defer close(w.done)
	defer w.markStopped()
	for {
		items, err := w.ring.TakeBatch(w.batch)
		if err != nil {
			return
		}
		w.mu.Lock()
		w.batches++
		w.batchPages += int64(len(items))
		w.mu.Unlock()

		ferr := w.flush(items)
		// Acknowledge before waking drainers: the ring only reports Idle
		// once the batch it handed out has been fully processed.
		w.ring.Ack()

		w.mu.Lock()
		if ferr != nil && w.err == nil {
			w.err = ferr
		}
		stop := w.err != nil
		w.idle.Broadcast()
		w.mu.Unlock()
		if stop {
			// Fail the ring so blocked producers see the error instead of
			// waiting forever for a drain that will never come.
			w.ring.Stop(true, ferr)
			return
		}
	}
}

// Drain blocks until every item staged before the call has been flushed,
// and returns the sticky flush error if one occurred.
func (w *GroupWriter) Drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.err != nil {
			return w.err
		}
		if w.ring.Idle() {
			return nil
		}
		if w.stopped {
			return ErrStopped
		}
		// The writer goroutine signals idle after every flush; re-examine
		// the ring then.
		w.idle.Wait()
	}
}

// Close drains the pipeline and stops the goroutine.
func (w *GroupWriter) Close() error {
	err := w.Drain()
	w.markStopped()
	w.ring.Stop(false, nil)
	<-w.done
	return err
}

// Abort stops the goroutine without draining: staged items are discarded,
// modelling the loss of volatile state at a crash.  It waits for an
// in-flight flush to return so device access has quiesced when it returns.
func (w *GroupWriter) Abort() {
	w.markStopped()
	w.ring.Stop(true, nil)
	<-w.done
}

func (w *GroupWriter) markStopped() {
	w.mu.Lock()
	w.stopped = true
	w.idle.Broadcast()
	w.mu.Unlock()
}

// Err returns the sticky flush error, if any.
func (w *GroupWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *GroupWriter) fillStats(s *metrics.PipelineStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s.Batches = w.batches
	s.BatchPages = w.batchPages
}
