package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/server/client"
	"github.com/reprolab/face/internal/server/wire"
)

// startDrainServer is startServer without the cleanup Shutdown: drain
// tests shut down themselves and assert on the result.
func startDrainServer(t *testing.T, cfg Config, writers int) (*Server, *engine.DB, string, string) {
	t.Helper()
	dir := t.TempDir()
	db := openDir(t, dir, writers)
	srv, err := New(db, cfg)
	if err != nil {
		db.Close()
		t.Fatalf("server.New: %v", err)
	}
	return srv, db, dir, listenAndServe(t, srv)
}

// TestDrainInFlightCommits: a batch open when Shutdown begins still
// commits, new connections are refused, and the committed state survives
// close-and-reopen — drain plus restart IS the recovery path.
func TestDrainInFlightCommits(t *testing.T) {
	srv, db, dir, addr := startDrainServer(t, Config{}, 4)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Create("drain"); err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10; k++ {
		if err := txn.Set("drain", k, []byte("survives")); err != nil {
			t.Fatal(err)
		}
	}

	// Start draining with the batch still open.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Wait until the server stops accepting, so the drain has begun.
	refused := false
	for i := 0; i < 200; i++ {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			refused = true
			break
		}
		nc.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Fatal("server kept accepting connections after Shutdown began")
	}

	// The in-flight batch must still commit.
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit during drain: %v", err)
	}
	c.Close()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("db.Close: %v", err)
	}

	// Reopen from the same directory: restart is recovery.
	checkSurvives(t, dir, 10)
}

// TestDrainRefusesNewRequests: a connection that was idle through the
// drain gets CLOSED for new requests rather than a hang.
func TestDrainRefusesNewRequests(t *testing.T) {
	srv, db, _, addr := startDrainServer(t, Config{}, 2)
	defer db.Close()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Create("idle"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The drained server closed the connection; the request must fail
	// fast with a connection or CLOSED error, never hang.
	errCh := make(chan error, 1)
	go func() { errCh <- c.Set("idle", 1, []byte("late")) }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("write after drain succeeded")
		}
		if !errors.Is(err, client.ErrClosed) && !errors.Is(err, client.ErrConnClosed) {
			t.Fatalf("write after drain = %v, want closed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request against a drained server hung")
	}
}

// TestDrainCloseUnderLoadNeverHangs hammers the server from many
// goroutines and calls Shutdown with a short deadline mid-flight.
// Shutdown must return (forcing stragglers via context cancellation) and
// db.Close must succeed: SIGTERM during load can never hang faced.
func TestDrainCloseUnderLoadNeverHangs(t *testing.T) {
	srv, db, _, addr := startDrainServer(t, Config{Writers: 2, Queue: 8}, 2)
	c, err := client.Dial(addr, client.Options{Conns: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Create("load"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the drain begins; the point is
				// that nothing blocks forever.
				_ = c.Set("load", uint64(w*1000+i%500), []byte("x"))
				sent.Add(1)
			}
		}(w)
	}
	// Let load build, then shut down with a tight deadline.
	for sent.Load() < 50 {
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		srv.Shutdown(ctx) // a deadline error is acceptable; hanging is not
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown under load did not return")
	}
	close(stop)
	wg.Wait()

	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("db.Close after forced drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("db.Close after forced drain hung")
	}
}

// TestDrainDoubleShutdown: Shutdown is idempotent.
func TestDrainDoubleShutdown(t *testing.T) {
	srv, db, _, _ := startDrainServer(t, Config{}, 2)
	defer db.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestDrainRejectsFreshConnections: a drained server accepts no
// connection, and its counters stay readable.
func TestDrainRejectsFreshConnections(t *testing.T) {
	srv, db, _, addr := startDrainServer(t, Config{}, 2)
	defer db.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Dialing a drained server must fail outright.
	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc.Close()
		t.Fatal("drained server accepted a connection")
	}
	// And its stats must still be readable.
	st := srv.Stats()
	if st.Requests != 0 {
		t.Fatalf("idle server counted %d requests", st.Requests)
	}
}

// TestDrainHandedOffWrites: pipelined SETs still running on their own
// goroutines when Shutdown begins are all acknowledged OK — the drain
// waits for each response to reach the socket, not only for the commit —
// and survive close-and-reopen.
func TestDrainHandedOffWrites(t *testing.T) {
	srv, db, dir, addr := startDrainServer(t, Config{Writers: 1, Queue: 16}, 1)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Create("drain"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	const n = 8
	release := parkWriters(t, db, 1)
	rc := dialRaw(t, addr)
	for k := 0; k < n; k++ {
		rc.send(&wire.Request{Op: wire.OpSet, Seq: uint32(k + 1), NS: "drain", Key: uint64(k), Value: []byte("survives")})
	}
	rc.flush()
	waitInFlight(t, srv, n)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); !srv.draining.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never began")
		}
	}
	release()

	for k := 0; k < n; k++ {
		resp := rc.recv()
		if resp.Seq != uint32(k+1) || resp.Status != wire.StatusOK {
			t.Fatalf("response %d during drain: seq %d, %s: %s", k, resp.Seq, wire.StatusName(resp.Status), wire.DecodeMessage(resp.Body))
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("db.Close: %v", err)
	}

	checkSurvives(t, dir, n)
}

// checkSurvives reopens the database in dir and checks that keys 0..n-1 of
// namespace "drain" hold "survives".
func checkSurvives(t *testing.T, dir string, n uint64) {
	t.Helper()
	db := openDir(t, dir, 4)
	defer db.Close()
	srv, err := New(db, Config{})
	if err != nil {
		t.Fatalf("New after reopen: %v", err)
	}
	ns, err := srv.Store().Namespace("drain")
	if err != nil {
		t.Fatalf("namespace lost across restart: %v", err)
	}
	err = db.View(context.Background(), func(tx *engine.Tx) error {
		for k := uint64(0); k < n; k++ {
			val, found, err := ns.Get(tx, k)
			if err != nil || !found || string(val) != "survives" {
				t.Errorf("key %d after restart = %q, found=%v err=%v", k, val, found, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
