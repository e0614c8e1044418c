package lock

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/reprolab/face/internal/page"
)

// forceDeadlock drives the canonical two-transaction cycle: tx1 holds X
// on page 1, tx2 holds X on page 2, tx1 blocks on page 2, then tx2's
// request for page 1 closes the cycle and is refused.
func forceDeadlock(t *testing.T, m *Manager) error {
	t.Helper()
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, page.ID(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, page.ID(2), Exclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	blocked := make(chan struct{})
	go func() {
		defer wg.Done()
		close(blocked)
		// Blocks until tx2 aborts below.
		if err := m.Acquire(ctx, 1, page.ID(2), Exclusive); err != nil {
			t.Errorf("tx1 acquire after cycle broken: %v", err)
		}
	}()
	<-blocked
	// Wait until tx1 is actually queued on page 2 so the wait-for edge
	// exists.
	for held(m, 1) != 1 || !waitingOn(m, 1, page.ID(2)) {
	}
	err := m.Acquire(ctx, 2, page.ID(1), Exclusive)
	m.ReleaseAll(2)
	wg.Wait()
	m.ReleaseAll(1)
	return err
}

func waitingOn(m *Manager, tx uint64, id page.ID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.txns[tx]
	return t != nil && t.wait != nil && t.wait.id == id
}

func TestDeadlockErrorCarriesCycle(t *testing.T) {
	m := New()
	err := forceDeadlock(t, m)
	if err == nil {
		t.Fatal("expected a deadlock")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("errors.Is(err, ErrDeadlock) = false for %v", err)
	}
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("error is not a *DeadlockError: %T %v", err, err)
	}
	if derr.Tx != 2 || derr.Page != page.ID(1) || derr.Mode != Exclusive {
		t.Fatalf("victim fields = %+v", derr)
	}
	// The cycle starts at the victim: tx2 waits on page 1 (held by tx1),
	// tx1 waits on page 2 (held by tx2).
	want := []WaitEdge{{Tx: 2, Page: 1}, {Tx: 1, Page: 2}}
	if len(derr.Cycle) != len(want) {
		t.Fatalf("cycle = %+v, want %+v", derr.Cycle, want)
	}
	for i := range want {
		if derr.Cycle[i] != want[i] {
			t.Fatalf("cycle = %+v, want %+v", derr.Cycle, want)
		}
	}
	if len(derr.Held) != 1 || derr.Held[0] != page.ID(2) {
		t.Fatalf("held = %v, want [2]", derr.Held)
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	m := New()
	err := forceDeadlock(t, m)
	if err == nil {
		t.Fatal("expected a deadlock")
	}
	msg := err.Error()
	// The historical prefix survives for log scrapers...
	if !strings.Contains(msg, "tx 2 waiting for X on page 1: lock: deadlock detected") {
		t.Fatalf("message lost its historical shape: %q", msg)
	}
	// ...and the cycle rides along.
	if !strings.Contains(msg, "cycle: tx 2→page 1, tx 1→page 2") {
		t.Fatalf("message lacks the cycle: %q", msg)
	}
}

func TestDeadlockErrorUpgradeCycle(t *testing.T) {
	// Two S holders both upgrading the same page: the refused one's
	// cycle is the degenerate self-wait through the other holder.
	m := New()
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, page.ID(9), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, page.ID(9), Shared); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Acquire(ctx, 1, page.ID(9), Exclusive); err != nil {
			t.Errorf("first upgrader: %v", err)
		}
	}()
	for !waitingOn(m, 1, page.ID(9)) {
	}
	err := m.Acquire(ctx, 2, page.ID(9), Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrader got %v, want deadlock", err)
	}
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("not structured: %T", err)
	}
	if len(derr.Cycle) == 0 {
		t.Fatal("upgrade deadlock carries no cycle")
	}
	if len(derr.Held) != 1 || derr.Held[0] != page.ID(9) {
		t.Fatalf("held = %v, want [9]", derr.Held)
	}
	m.ReleaseAll(2)
	wg.Wait()
	m.ReleaseAll(1)
}
