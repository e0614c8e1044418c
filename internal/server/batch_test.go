package server

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/face/internal/kv"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/server/client"
)

// TestTxnRefusedWritePoisonsCommit: a batch write the server refuses — to
// a namespace that does not exist, of a value over kv.MaxValueSize — makes
// Commit fail, every time it is called, with an error that is not
// retryable; nothing of the batch is applied, and Abort still works.
func TestTxnRefusedWritePoisonsCommit(t *testing.T) {
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 1)
	if err := c.Create("b"); err != nil {
		t.Fatal(err)
	}
	for _, refused := range []struct {
		name string
		ns   string
		val  []byte
		msg  string
	}{
		{"unknown namespace", "nope", []byte("x"), "unknown namespace"},
		{"value too large", "b", make([]byte, kv.MaxValueSize+1), "too large"},
	} {
		t.Run(refused.name, func(t *testing.T) {
			txn, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := txn.Set("b", 1, []byte("before")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Set(refused.ns, 2, refused.val); err != nil {
				t.Fatalf("a refused Set reported %v before Commit", err)
			}
			if err := txn.Set("b", 3, []byte("after")); err != nil {
				t.Fatal(err)
			}
			first := txn.Commit()
			for i, err := range []error{first, txn.Commit()} {
				switch {
				case err == nil:
					t.Fatalf("Commit %d of a batch with a refused write succeeded", i+1)
				case errors.Is(err, client.ErrBusy), errors.Is(err, client.ErrTimeout):
					t.Fatalf("Commit %d: %v, which says retry COMMIT", i+1, err)
				case !strings.Contains(err.Error(), refused.msg):
					t.Fatalf("Commit %d: %v, want the refusal (%q)", i+1, err, refused.msg)
				case err.Error() != first.Error():
					t.Fatalf("Commit %d: %v, the first said %v", i+1, err, first)
				}
			}
			for _, k := range []uint64{1, 2, 3} {
				if _, found, err := c.Get("b", k); err != nil || found {
					t.Fatalf("Get(%d) after the refused batch: found=%v err=%v", k, found, err)
				}
			}
			if err := txn.Abort(); err != nil {
				t.Fatalf("Abort of the poisoned batch: %v", err)
			}
			if err := txn.Commit(); err == nil {
				t.Fatal("Commit after Abort succeeded")
			}
		})
	}
}

// TestTxnGetReadsPipelinedSet: a Get sent after pipelined writes of its
// key reads the last of them, and one of a key the batch deleted finds
// nothing; the Commit after them applies them all.
func TestTxnGetReadsPipelinedSet(t *testing.T) {
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 1)
	if err := c.Create("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", 2, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := txn.Set("b", 1, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Del("b", 2); err != nil {
		t.Fatal(err)
	}
	if val, found, err := txn.Get("b", 1); err != nil || !found || string(val) != "v2" {
		t.Fatalf("Get(1) after pipelined Sets = %q, %v, %v; want v2", val, found, err)
	}
	if _, found, err := txn.Get("b", 2); err != nil || found {
		t.Fatalf("Get(2) after a pipelined Del: found=%v err=%v", found, err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if val, found, err := c.Get("b", 1); err != nil || !found || string(val) != "v2" {
		t.Fatalf("Get(1) after Commit = %q, %v, %v", val, found, err)
	}
	if _, found, err := c.Get("b", 2); err != nil || found {
		t.Fatalf("Get(2) after Commit: found=%v err=%v", found, err)
	}
}

// TestTxnLargeBatchCommits: a batch of 10 000 pipelined writes, far more
// than the server's response queue holds (respQueueDepth) and than the
// client's write buffer does, goes through without either side waiting
// on the other for good, and commits every write.
func TestTxnLargeBatchCommits(t *testing.T) {
	const writes = 10000
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 1)
	if err := c.Create("b"); err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for k := range uint64(writes) {
			if err := txn.Set("b", k, batchValue(k)); err != nil {
				done <- err
				return
			}
		}
		done <- txn.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("a 10 000-write batch did not commit in 60 s")
	}
	pairs, err := c.Scan("b", 0, writes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != writes {
		t.Fatalf("Scan after Commit: %d pairs, want %d", len(pairs), writes)
	}
	for i, p := range pairs {
		if p.Key != uint64(i) || string(p.Value) != string(batchValue(p.Key)) {
			t.Fatalf("pair %d: key %d, %q", i, p.Key, p.Value)
		}
	}
}

func batchValue(k uint64) []byte { return []byte(fmt.Sprintf("value-%08d", k)) }

// TestTxnConnClosedMidBatch: a batch whose connection goes away while its
// writes are in flight fails Commit with ErrConnClosed.
func TestTxnConnClosedMidBatch(t *testing.T) {
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 1)
	if err := c.Create("b"); err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := range uint64(100) {
		if err := txn.Set("b", k, batchValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Close every connection the server holds, the batch's among them.
	ts.srv.mu.Lock()
	for conn := range ts.srv.conns {
		conn.Close()
	}
	ts.srv.mu.Unlock()
	for k := range uint64(100) {
		if err := txn.Set("b", 100+k, batchValue(k)); err != nil && !errors.Is(err, client.ErrConnClosed) {
			t.Fatalf("Set on a closed connection: %v", err)
		}
	}
	if err := txn.Commit(); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("Commit on a closed connection: %v, want ErrConnClosed", err)
	}
}

// TestAllocBudgetBatchWrite: one pipelined batch write costs, client and
// server together, eight allocations — the request frame written, the
// frame read and the Request decoded, the server's response slot and its
// copy of the value, the reply frame written, the frame read and the
// Response decoded — and nothing for a deadline timer, a context or a
// reply channel.
func TestAllocBudgetBatchWrite(t *testing.T) {
	if page.RecycleGuard {
		t.Skip("allocation budgets are not measured under the race build")
	}
	const writes = 2000
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 1)
	if err := c.Create("b"); err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	val := make([]byte, 128)
	// batch pipelines Sets of fresh keys and waits, with a Get,
	// until the server has answered them all.
	next := uint64(0)
	batch := func() {
		for range writes {
			if err := txn.Set("b", next, val); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if _, _, err := txn.Get("b", 0); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batch()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / writes
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / writes
	t.Logf("a pipelined batch write: %.2f allocations, %.0f B", allocs, bytes)
	if allocs > 8.5 || bytes > 1024 {
		t.Fatalf("a pipelined batch write costs %.2f allocations and %.0f B, budget is 8 and 1 024 B", allocs, bytes)
	}
}
