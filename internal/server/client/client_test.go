package client

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestRetryBusy(t *testing.T) {
	busy := fmt.Errorf("%w: admission queue full", ErrBusy)

	// BUSY is retried until the operation gets through.
	calls := 0
	err := RetryBusy(context.Background(), func() error {
		if calls++; calls < 4 {
			return busy
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("RetryBusy = %v after %d calls, want nil after 4", err, calls)
	}

	// Any other error ends the loop at once.
	calls = 0
	err = RetryBusy(context.Background(), func() error { calls++; return ErrTimeout })
	if !errors.Is(err, ErrTimeout) || calls != 1 {
		t.Fatalf("RetryBusy = %v after %d calls, want ErrTimeout after 1", err, calls)
	}

	// The context bounds the retrying; the error says both why it stopped
	// and what it was retrying.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	calls = 0
	err = RetryBusy(ctx, func() error { calls++; return busy })
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrBusy) {
		t.Fatalf("RetryBusy past its deadline = %v, want DeadlineExceeded and ErrBusy", err)
	}
	// 20 ms of waits doubling from 50-100 µs: a spin would make thousands
	// of calls, the backoff makes about eight.
	if calls < 2 || calls > 20 {
		t.Fatalf("%d calls in 20 ms: the waits are not growing", calls)
	}
}
