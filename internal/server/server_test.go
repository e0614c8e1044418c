package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/server/client"
	"github.com/reprolab/face/internal/server/wire"
)

// testServer is a server running over a file-backed database in a temp
// directory — the same WithDir stack faced serves in production.
type testServer struct {
	srv  *Server
	db   *engine.DB
	dir  string
	addr string
}

func startServer(t *testing.T, cfg Config, writers int) *testServer {
	t.Helper()
	dir := t.TempDir()
	return serveDB(t, openDir(t, dir, writers), dir, cfg)
}

// serveDB serves db until the test ends, then drains the server and
// closes the database.
func serveDB(t testing.TB, db *engine.DB, dir string, cfg Config) *testServer {
	t.Helper()
	srv, err := New(db, cfg)
	if err != nil {
		db.Close()
		t.Fatalf("server.New: %v", err)
	}
	ts := &testServer{srv: srv, db: db, dir: dir, addr: listenAndServe(t, srv)}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ts.srv.Shutdown(ctx)
		ts.db.Close()
	})
	return ts
}

// acceptSignal closes accepting at the first Accept call.
type acceptSignal struct {
	net.Listener
	once      sync.Once
	accepting chan struct{}
}

func (l *acceptSignal) Accept() (net.Conn, error) {
	l.once.Do(func() { close(l.accepting) })
	return l.Listener.Accept()
}

// listenAndServe starts srv on a loopback listener and returns its
// address once the server is serving: Serve registers the listener before
// its first Accept, so a Shutdown after this returns finds it.
func listenAndServe(t testing.TB, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sig := &acceptSignal{Listener: ln, accepting: make(chan struct{})}
	go srv.Serve(sig)
	<-sig.accepting
	return ln.Addr().String()
}

func openDir(t testing.TB, dir string, writers int) *engine.DB {
	t.Helper()
	return openDirFsync(t, dir, writers, false)
}

func openDirFsync(t testing.TB, dir string, writers int, fsync bool) *engine.DB {
	t.Helper()
	cfg := engine.Config{
		Dir:         dir,
		BufferPages: 512,
		Policy:      engine.PolicyNone,
		NoFsync:     !fsync,
	}
	if writers > 0 {
		cfg.MaxWriters = writers
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatalf("engine.Open(%s): %v", dir, err)
	}
	return db
}

func dial(t *testing.T, ts *testServer, conns int) *client.Client {
	t.Helper()
	c, err := client.Dial(ts.addr, client.Options{Conns: conns})
	if err != nil {
		t.Fatalf("client.Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerRoundTrip(t *testing.T) {
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 2)

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.Create("users"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Create("users"); err != nil {
		t.Fatalf("second Create: %v", err)
	}
	if err := c.Set("users", 42, []byte("hello")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	val, found, err := c.Get("users", 42)
	if err != nil || !found || string(val) != "hello" {
		t.Fatalf("Get = %q, %v, %v", val, found, err)
	}
	if _, found, err = c.Get("users", 43); err != nil || found {
		t.Fatalf("Get(43) = found=%v err=%v, want miss", found, err)
	}
	if _, _, err := c.Get("nope", 1); err == nil {
		t.Fatal("Get on unknown namespace succeeded")
	}
	for k := uint64(10); k < 20; k++ {
		if err := c.Set("users", k, []byte{byte(k)}); err != nil {
			t.Fatalf("Set(%d): %v", k, err)
		}
	}
	pairs, err := c.Scan("users", 12, 16, 0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(pairs) != 5 || pairs[0].Key != 12 || pairs[4].Key != 16 {
		t.Fatalf("Scan = %v", pairs)
	}
	pairs, err = c.Scan("users", 0, ^uint64(0), 3)
	if err != nil || len(pairs) != 3 {
		t.Fatalf("limited Scan = %d pairs, %v", len(pairs), err)
	}
	existed, err := c.Del("users", 42)
	if err != nil || !existed {
		t.Fatalf("Del = %v, %v", existed, err)
	}
	existed, err = c.Del("users", 42)
	if err != nil || existed {
		t.Fatalf("second Del = %v, %v", existed, err)
	}
}

// TestServerPipelining drives the raw protocol: many requests written
// before any response is read, responses returned in request order —
// whatever mix of inline reads and handed-off writes they are.
func TestServerPipelining(t *testing.T) {
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 1)
	if err := c.Create("p"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	const n = 100
	for i := 0; i < n; i++ {
		req := &wire.Request{Op: wire.OpSet, Seq: uint32(i + 1), NS: "p", Key: uint64(i), Value: []byte{byte(i)}}
		switch i % 4 {
		case 1:
			req = &wire.Request{Op: wire.OpGet, Seq: uint32(i + 1), NS: "p", Key: uint64(i / 2)}
		case 3:
			req = &wire.Request{Op: wire.OpDel, Seq: uint32(i + 1), NS: "p", Key: uint64(i - 3)}
		}
		if err := wire.WriteRequest(bw, req); err != nil {
			t.Fatalf("WriteRequest(%d): %v", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for i := 0; i < n; i++ {
		resp, err := wire.ReadResponse(br)
		if err != nil {
			t.Fatalf("ReadResponse(%d): %v", i, err)
		}
		if resp.Seq != uint32(i+1) {
			t.Fatalf("response %d carries seq %d: pipelined responses must stay in request order", i, resp.Seq)
		}
		if resp.Status != wire.StatusOK && resp.Status != wire.StatusBusy && resp.Status != wire.StatusNotFound {
			t.Fatalf("response %d: %s: %s", i, wire.StatusName(resp.Status), wire.DecodeMessage(resp.Body))
		}
	}
}

// TestServer64Connections is the acceptance criterion: at least 64
// concurrent client connections served against a file-backed database.
func TestServer64Connections(t *testing.T) {
	ts := startServer(t, Config{Writers: 8}, 8)
	c := dial(t, ts, 64)
	if err := c.Create("c64"); err != nil {
		t.Fatal(err)
	}

	const workers = 64
	const opsPer = 30
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	var busy, ok atomic.Int64
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := uint64(w*opsPer + i)
				val := []byte(fmt.Sprintf("w%d-%d", w, i))
				// BUSY is the retryable contract, and retrying it means
				// backing off first.
				err := client.RetryBusy(ctx, func() error {
					err := c.Set("c64", key, val)
					if errors.Is(err, client.ErrBusy) {
						busy.Add(1)
					}
					return err
				})
				if err != nil {
					errCh <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got := ok.Load(); got != workers*opsPer {
		t.Fatalf("committed %d of %d writes", got, workers*opsPer)
	}
	// Every write must read back.
	for w := 0; w < workers; w++ {
		key := uint64(w * opsPer)
		val, found, err := c.Get("c64", key)
		if err != nil || !found {
			t.Fatalf("Get(%d) = found=%v err=%v", key, found, err)
		}
		if want := fmt.Sprintf("w%d-0", w); string(val) != want {
			t.Fatalf("Get(%d) = %q, want %q", key, val, want)
		}
	}
	t.Logf("64-connection run: %d ok, %d busy-retries", ok.Load(), busy.Load())
}

func TestServerBatchSemantics(t *testing.T) {
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 2)
	if err := c.Create("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", 1, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", 2, []byte("doomed")); err != nil {
		t.Fatal(err)
	}

	txn, err := c.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := txn.Set("b", 3, []byte("batched")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Del("b", 2); err != nil {
		t.Fatal(err)
	}
	if err := txn.Set("b", 1, []byte("overwritten")); err != nil {
		t.Fatal(err)
	}

	// The batch's own reads see the overlay...
	val, found, err := txn.Get("b", 3)
	if err != nil || !found || string(val) != "batched" {
		t.Fatalf("txn Get(3) = %q, %v, %v", val, found, err)
	}
	if _, found, _ := txn.Get("b", 2); found {
		t.Fatal("txn Get(2) sees a key the batch deleted")
	}
	// ...including merged scans...
	pairs, err := txn.Scan("b", 0, 10, 0)
	if err != nil {
		t.Fatalf("txn Scan: %v", err)
	}
	if len(pairs) != 2 || pairs[0].Key != 1 || string(pairs[0].Value) != "overwritten" || pairs[1].Key != 3 {
		t.Fatalf("txn Scan = %v", pairs)
	}
	// ...while other connections still see the committed state.
	val, found, err = c.Get("b", 1)
	if err != nil || !found || string(val) != "committed" {
		t.Fatalf("outside Get(1) during batch = %q, %v, %v", val, found, err)
	}
	if _, found, _ = c.Get("b", 3); found {
		t.Fatal("outside Get(3) sees an uncommitted batch write")
	}

	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	val, found, err = c.Get("b", 1)
	if err != nil || !found || string(val) != "overwritten" {
		t.Fatalf("Get(1) after commit = %q, %v, %v", val, found, err)
	}
	if _, found, _ = c.Get("b", 2); found {
		t.Fatal("Get(2) after commit: batched delete lost")
	}

	// An aborted batch changes nothing.
	txn2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn2.Set("b", 9, []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if _, found, _ = c.Get("b", 9); found {
		t.Fatal("Get(9) sees an aborted batch write")
	}
}

// TestServerScanValuesSurviveLargeResults checks value integrity through
// the scan encoding on a multi-page namespace.
func TestServerScanValuesSurviveLargeResults(t *testing.T) {
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 1)
	if err := c.Create("wide"); err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	for k := uint64(0); k < 64; k++ {
		val := bytes.Repeat([]byte{byte(k + 1)}, 200)
		want[k] = val
		if err := c.Set("wide", k, val); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := c.Scan("wide", 0, ^uint64(0), 0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(pairs) != len(want) {
		t.Fatalf("Scan returned %d pairs, want %d", len(pairs), len(want))
	}
	for _, p := range pairs {
		if !bytes.Equal(p.Value, want[p.Key]) {
			t.Fatalf("key %d: value mismatch", p.Key)
		}
	}
}

// TestAdmissionRejectsUnderOverload saturates a Writers=1, Queue-less
// server deterministically: a transaction parked inside the engine holds
// the single writer slot, so the first network write takes the admission
// token and blocks behind it, and every further write must be shed with
// BUSY — a clean, retryable no-op — instead of queueing without bound.
func TestAdmissionRejectsUnderOverload(t *testing.T) {
	ts := startServer(t, Config{Writers: 1, Queue: -1}, 1)
	c := dial(t, ts, 4)
	if err := c.Create("flood"); err != nil {
		t.Fatal(err)
	}

	// Park a direct engine transaction: it holds the engine's only
	// writer slot until released.
	release := parkWriters(t, ts.db, 1)

	// The first network write takes the admission token and blocks on the
	// engine's writer semaphore.  Wait until it holds the token: a second
	// write sent earlier could take it instead and block until its client
	// times out.
	admitted := ts.srv.Stats().Admission.Admitted
	setDone := make(chan error, 1)
	go func() { setDone <- c.Set("flood", 1, []byte("first")) }()
	for wait := time.Now().Add(5 * time.Second); ts.srv.Stats().Admission.Admitted == admitted; {
		if time.Now().After(wait) {
			t.Fatal("the first write never took the admission token")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Once the token is taken, further writes are shed immediately.
	deadline := time.Now().Add(5 * time.Second)
	var sawBusy bool
	for time.Now().Before(deadline) {
		err := c.Set("flood", 2, []byte("second"))
		if errors.Is(err, client.ErrBusy) {
			sawBusy = true
			break
		}
		if err != nil {
			t.Fatalf("Set = %v, want nil or ErrBusy", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !sawBusy {
		t.Fatal("no BUSY while the writer slot was held: admission is not shedding")
	}

	// Release the parked writer: the blocked Set completes and the server
	// serves normally again.
	release()
	if err := <-setDone; err != nil {
		t.Fatalf("blocked Set: %v", err)
	}
	if err := c.Set("flood", 3, []byte("after")); err != nil {
		t.Fatalf("Set after overload: %v", err)
	}
	val, found, err := c.Get("flood", 1)
	if err != nil || !found || string(val) != "first" {
		t.Fatalf("Get(1) = %q, %v, %v", val, found, err)
	}
	st := ts.srv.Stats()
	if st.Admission.Rejected == 0 {
		t.Fatalf("admission stats recorded no rejects: %+v", st.Admission)
	}
	if st.Busy == 0 {
		t.Fatalf("server stats recorded no BUSY responses: %+v", st)
	}
}

// TestAdmissionQueueWaits checks the bounded-queue middle ground: with a
// queue, brief contention waits instead of rejecting.
func TestAdmissionQueueWaits(t *testing.T) {
	a := newAdmission(1, 2)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two waiters fit the queue.
	done := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func() { done <- a.Acquire(context.Background()) }()
	}
	// Give both time to enqueue, then a third must be shed immediately.
	time.Sleep(50 * time.Millisecond)
	if err := a.Acquire(context.Background()); !errors.Is(err, ErrBusy) {
		t.Fatalf("third waiter = %v, want ErrBusy", err)
	}
	a.Release()
	if err := <-done; err != nil {
		t.Fatalf("first waiter: %v", err)
	}
	a.Release()
	if err := <-done; err != nil {
		t.Fatalf("second waiter: %v", err)
	}
	a.Release()

	// A cancelled waiter leaves the queue promptly.
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- a.Acquire(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
	}
	a.Release()
	st := a.Stats()
	if st.Rejected == 0 || st.Waits == 0 {
		t.Fatalf("stats = %+v, want rejects and waits recorded", st)
	}
}
