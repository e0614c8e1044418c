package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrBusy is the admission controller's refusal: every writer token is
// taken and the wait queue is full.  The server maps it to StatusBusy —
// a retryable signal — instead of letting latency grow without bound.
var ErrBusy = errors.New("server: admission queue full")

// admission generalizes the engine's WithMaxWriters semaphore to the
// network edge.  Writers tokens bound the write transactions in flight
// (matching the engine's MaxWriters); queue slots bound how many more
// requests may wait for a token.  A request arriving beyond both bounds
// is shed immediately with ErrBusy: under overload the server degrades
// into explicit, retryable rejections rather than an unbounded queue of
// ever-slower requests.
type admission struct {
	tokens chan struct{}
	queue  chan struct{}

	admitted atomic.Int64
	rejected atomic.Int64
	waits    atomic.Int64
}

// newAdmission builds a controller with the given writer and queue
// bounds (both at least 1; queue 0 disables waiting entirely).
func newAdmission(writers, queue int) *admission {
	a := &admission{tokens: make(chan struct{}, writers)}
	if queue > 0 {
		a.queue = make(chan struct{}, queue)
	}
	return a
}

// Acquire takes a writer token, waiting in the bounded queue if needed.
// It returns ErrBusy when both are full and the context's error when it
// ends first.  A nil error must be paired with Release.
func (a *admission) Acquire(ctx context.Context) error {
	select {
	case a.tokens <- struct{}{}:
		a.admitted.Add(1)
		return nil
	default:
	}
	if a.queue == nil {
		a.rejected.Add(1)
		return ErrBusy
	}
	select {
	case a.queue <- struct{}{}:
	default:
		a.rejected.Add(1)
		return ErrBusy
	}
	a.waits.Add(1)
	defer func() { <-a.queue }()
	select {
	case a.tokens <- struct{}{}:
		a.admitted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a writer token.
func (a *admission) Release() { <-a.tokens }

// AdmissionStats is a snapshot of the controller's counters.
type AdmissionStats struct {
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Waits    int64 `json:"waits"`
}

func (a *admission) Stats() AdmissionStats {
	return AdmissionStats{
		Admitted: a.admitted.Load(),
		Rejected: a.rejected.Load(),
		Waits:    a.waits.Load(),
	}
}
