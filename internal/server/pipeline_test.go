package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/server/client"
	"github.com/reprolab/face/internal/server/wire"
)

// rawConn speaks the wire protocol without the client library, so a test
// decides exactly what is written before anything is read.
type rawConn struct {
	t  testing.TB
	nc net.Conn
	bw *bufio.Writer
	br *bufio.Reader
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, bw: bufio.NewWriter(nc), br: bufio.NewReader(nc)}
}

func (c *rawConn) send(req *wire.Request) {
	c.t.Helper()
	if err := wire.WriteRequest(c.bw, req); err != nil {
		c.t.Fatalf("WriteRequest(seq %d): %v", req.Seq, err)
	}
}

func (c *rawConn) flush() {
	c.t.Helper()
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawConn) recv() *wire.Response {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	resp, err := wire.ReadResponse(c.br)
	if err != nil {
		c.t.Fatalf("ReadResponse: %v", err)
	}
	return resp
}

// parkWriters parks n transactions inside the engine and returns the
// function that lets them finish.  On a MaxWriters=n engine they hold every
// writer slot, so each served write stays in flight until then.
func parkWriters(t testing.TB, db *engine.DB, n int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	parked := make(chan struct{}, n)
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			done <- db.Update(context.Background(), func(tx *engine.Tx) error {
				parked <- struct{}{}
				<-gate
				return nil
			})
		}()
	}
	for i := 0; i < n; i++ {
		<-parked
	}
	release = sync.OnceFunc(func() {
		close(gate)
		for i := 0; i < n; i++ {
			if err := <-done; err != nil {
				t.Errorf("parked Update: %v", err)
			}
		}
	})
	// A failing test must not leave the transactions parked: closing the
	// database waits for them.
	t.Cleanup(release)
	return release
}

// waitInFlight waits until the server holds exactly n requests.
func waitInFlight(t testing.TB, srv *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); srv.InFlight() != n; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight() = %d, want %d", srv.InFlight(), n)
		}
	}
}

// TestServerPerKeyOrder: requests of one connection on one key take effect
// in arrival order although the writes run on goroutines of their own.
// SET k=i for i = 1..200, each followed by a GET k, all written before any
// response is read: every GET sees the SET before it, and 200 is left.
func TestServerPerKeyOrder(t *testing.T) {
	ts := startServer(t, Config{}, 4)
	c := dial(t, ts, 1)
	if err := c.Create("o"); err != nil {
		t.Fatal(err)
	}
	const n = 200
	rc := dialRaw(t, ts.addr)
	// The writer runs beside the reader: what is pipelined must not depend
	// on the socket buffers holding all of it.
	written := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			wire.WriteRequest(rc.bw, &wire.Request{Op: wire.OpSet, Seq: uint32(2*i - 1), NS: "o", Key: 7, Value: []byte(strconv.Itoa(i))})
			wire.WriteRequest(rc.bw, &wire.Request{Op: wire.OpGet, Seq: uint32(2 * i), NS: "o", Key: 7})
		}
		written <- rc.bw.Flush() // a failed write sticks to the bufio.Writer
	}()
	for i := 1; i <= n; i++ {
		if resp := rc.recv(); resp.Seq != uint32(2*i-1) || resp.Status != wire.StatusOK {
			t.Fatalf("SET %d: seq %d, %s: %s", i, resp.Seq, wire.StatusName(resp.Status), wire.DecodeMessage(resp.Body))
		}
		resp := rc.recv()
		if resp.Seq != uint32(2*i) || resp.Status != wire.StatusOK {
			t.Fatalf("GET after SET %d: seq %d, %s: %s", i, resp.Seq, wire.StatusName(resp.Status), wire.DecodeMessage(resp.Body))
		}
		if val, err := wire.DecodeValue(resp.Body); err != nil || string(val) != strconv.Itoa(i) {
			t.Fatalf("GET after SET %d read %q (%v)", i, val, err)
		}
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	val, found, err := c.Get("o", 7)
	if err != nil || !found || string(val) != strconv.Itoa(n) {
		t.Fatalf("final value = %q, found=%v err=%v; want %d", val, found, err, n)
	}

	// A DEL between two SETs keeps its place too.
	rc.send(&wire.Request{Op: wire.OpDel, Seq: 1001, NS: "o", Key: 7})
	rc.send(&wire.Request{Op: wire.OpGet, Seq: 1002, NS: "o", Key: 7})
	rc.send(&wire.Request{Op: wire.OpSet, Seq: 1003, NS: "o", Key: 7, Value: []byte("back")})
	rc.send(&wire.Request{Op: wire.OpGet, Seq: 1004, NS: "o", Key: 7})
	rc.flush()
	want := []byte{wire.StatusOK, wire.StatusNotFound, wire.StatusOK, wire.StatusOK}
	for i, st := range want {
		if resp := rc.recv(); resp.Seq != uint32(1001+i) || resp.Status != st {
			t.Fatalf("DEL/GET/SET/GET response %d: seq %d, %s", i, resp.Seq, wire.StatusName(resp.Status))
		}
	}
}

// TestServerBarrierOps: a SCAN, and a batch, pipelined behind 32 SETs see
// all 32 — requests that are not single-key wait for the connection's
// writes in flight.
func TestServerBarrierOps(t *testing.T) {
	ts := startServer(t, Config{}, 8)
	c := dial(t, ts, 1)
	if err := c.Create("bar"); err != nil {
		t.Fatal(err)
	}
	const n = 32
	// Overwrites, not inserts: concurrent inserts of fresh keys may lose a
	// deadlock to each other, and this test is about ordering.
	for k := uint64(0); k < n; k++ {
		if err := c.Set("bar", k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	rc := dialRaw(t, ts.addr)
	seq := uint32(0)
	send := func(req *wire.Request) {
		seq++
		req.Seq = seq
		rc.send(req)
	}
	for k := uint64(0); k < n; k++ {
		send(&wire.Request{Op: wire.OpSet, NS: "bar", Key: k, Value: []byte("new")})
	}
	send(&wire.Request{Op: wire.OpScan, NS: "bar", Hi: ^uint64(0)})
	for k := uint64(0); k < n; k++ {
		send(&wire.Request{Op: wire.OpSet, NS: "bar", Key: k, Value: []byte("NEW")})
	}
	send(&wire.Request{Op: wire.OpBegin})
	send(&wire.Request{Op: wire.OpScan, NS: "bar", Hi: ^uint64(0)})
	send(&wire.Request{Op: wire.OpSet, NS: "bar", Key: n, Value: []byte("batched")})
	send(&wire.Request{Op: wire.OpCommit})
	send(&wire.Request{Op: wire.OpGet, NS: "bar", Key: n})
	rc.flush()

	next := uint32(0)
	recv := func(what string) *wire.Response {
		t.Helper()
		next++
		resp := rc.recv()
		if resp.Seq != next || resp.Status != wire.StatusOK {
			t.Fatalf("%s: seq %d (want %d), %s: %s", what, resp.Seq, next, wire.StatusName(resp.Status), wire.DecodeMessage(resp.Body))
		}
		return resp
	}
	scanSees := func(what, want string) {
		t.Helper()
		pairs, err := wire.DecodePairs(recv(what).Body)
		if err != nil || len(pairs) != n {
			t.Fatalf("%s: %d pairs, %v", what, len(pairs), err)
		}
		for _, p := range pairs {
			if string(p.Value) != want {
				t.Fatalf("%s: key %d = %q, want %q: the scan overtook a SET", what, p.Key, p.Value, want)
			}
		}
	}
	for k := 0; k < n; k++ {
		recv("SET")
	}
	scanSees("SCAN", "new")
	for k := 0; k < n; k++ {
		recv("second SET")
	}
	recv("BEGIN")
	scanSees("SCAN in batch", "NEW")
	recv("SET in batch")
	recv("COMMIT")
	if val, err := wire.DecodeValue(recv("GET after COMMIT").Body); err != nil || string(val) != "batched" {
		t.Fatalf("GET after COMMIT = %q (%v)", val, err)
	}
}

// TestServerPipelinedWritesShareForces: the point of handing writes off.
// 32 pipelined SETs of distinct keys on one connection, over files with
// fsync on, are in flight together, so their commits share log forces.
func TestServerPipelinedWritesShareForces(t *testing.T) {
	dir := t.TempDir()
	ts := serveDB(t, openDirFsync(t, dir, DefaultWriters, true), dir, Config{})
	c := dial(t, ts, 1)
	if err := c.Create("f"); err != nil {
		t.Fatal(err)
	}
	const n = 32
	for k := uint64(0); k < n; k++ {
		if err := c.Set("f", k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	before := ts.db.Snapshot()
	rc := dialRaw(t, ts.addr)
	for k := 0; k < n; k++ {
		rc.send(&wire.Request{Op: wire.OpSet, Seq: uint32(k + 1), NS: "f", Key: uint64(k), Value: []byte("new")})
	}
	rc.flush()
	for k := 0; k < n; k++ {
		if resp := rc.recv(); resp.Seq != uint32(k+1) || resp.Status != wire.StatusOK {
			t.Fatalf("SET %d: seq %d, %s: %s", k, resp.Seq, wire.StatusName(resp.Status), wire.DecodeMessage(resp.Body))
		}
	}
	after := ts.db.Snapshot()
	commits := after.Committed - before.Committed
	forces := after.Wal.Forces - before.Wal.Forces
	t.Logf("%d commits, %d device forces", commits, forces)
	if commits != n {
		t.Fatalf("%d commits for %d SETs", commits, n)
	}
	if forces >= n {
		t.Fatalf("%d device forces for %d pipelined SETs: one connection's writes did not overlap", forces, n)
	}
}

// TestServerClientVanishesWithWritesInFlight: a client that disconnects
// while its handed-off writes are still running leaves nothing behind — the
// writes finish, the gate empties, every goroutine exits and the database
// closes cleanly.
func TestServerClientVanishesWithWritesInFlight(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	srv, db, _, addr := startDrainServer(t, Config{Writers: 1, Queue: 16}, 1)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Create("gone"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	const n = 8
	release := parkWriters(t, db, 1)
	rc := dialRaw(t, addr)
	for k := 0; k < n; k++ {
		rc.send(&wire.Request{Op: wire.OpSet, Seq: uint32(k + 1), NS: "gone", Key: uint64(k), Value: []byte("x")})
	}
	rc.flush()
	waitInFlight(t, srv, n)
	rc.nc.Close()
	release()
	waitInFlight(t, srv, 0)
	if got := db.Committed(); got < n {
		t.Errorf("%d transactions committed, want the %d abandoned SETs among them", got, n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("db.Close: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, %d before the server started:\n%s",
				runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
		}
	}
}

// mixedValue is the value of a key's seq-th SET.  The width is fixed so a
// SET overwrites in place: a value that changes size moves the record, and
// a SET that moves a record can deadlock with a GET of it.
func mixedValue(seq int) []byte { return []byte(fmt.Sprintf("%08d", seq)) }

// TestServerMixedStress is kv-mixed's shape and its check at test scale:
// sixteen callers on each of two connections, GETs of any key and SETs of
// the keys their connection owns.  Whatever a GET returns, and whatever is
// left at the end, must be a value some SET wrote and must not have lost an
// acknowledged SET: one issued after the SET read had completed (and, for
// a GET, acknowledged before the GET was sent).
func TestServerMixedStress(t *testing.T) {
	ts := startServer(t, Config{}, DefaultWriters)
	const (
		conns   = 2
		callers = 16
		keys    = 64
		ops     = 150
	)
	setup := dial(t, ts, 1)
	if err := setup.Create("mix"); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		if err := setup.Set("mix", k, mixedValue(0)); err != nil {
			t.Fatal(err)
		}
	}

	// write is one SET as its caller saw it; a key's SETs are numbered
	// from 1 in issue order and carry that number as their value (the
	// preload is number 0).
	type write struct {
		issued, done time.Time
		acked        bool
	}
	var mu sync.Mutex
	hist := make(map[uint64][]write)
	// check returns what is wrong with reading val from key at the given
	// time, or "".
	check := func(key uint64, val []byte, at time.Time) string {
		mu.Lock()
		defer mu.Unlock()
		seq, err := strconv.Atoi(string(val))
		if err != nil || seq > len(hist[key]) {
			return fmt.Sprintf("holds %q, which no SET wrote", val)
		}
		var read write // the preload completed before anything was issued
		if seq > 0 {
			if read = hist[key][seq-1]; read.done.IsZero() {
				return "" // still running: nothing can have been issued after it
			}
		}
		for i, w := range hist[key] {
			if w.acked && w.issued.After(read.done) && w.done.Before(at) {
				return fmt.Sprintf("acknowledged SET %d was lost to earlier SET %d", i+1, seq)
			}
		}
		return ""
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for lane := 0; lane < conns; lane++ {
		c := dial(t, ts, 1)
		for caller := 0; caller < callers; caller++ {
			wg.Add(1)
			go func(lane, caller int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					key := uint64((caller*31 + i*7) % keys)
					if i%5 != 0 {
						sent := time.Now()
						var val []byte
						var found bool
						err := client.RetryBusy(ctx, func() (err error) {
							val, found, err = c.Get("mix", key)
							return err
						})
						if err != nil || !found {
							t.Errorf("GET %d: found=%v err=%v", key, found, err)
							return
						}
						if msg := check(key, val, sent); msg != "" {
							t.Errorf("GET %d: %s", key, msg)
							return
						}
						continue
					}
					key = key - key%conns + uint64(lane)
					mu.Lock()
					hist[key] = append(hist[key], write{issued: time.Now()})
					seq := len(hist[key])
					mu.Unlock()
					val := mixedValue(seq)
					err := client.RetryBusy(ctx, func() error { return c.Set("mix", key, val) })
					mu.Lock()
					w := &hist[key][seq-1]
					w.done, w.acked = time.Now(), err == nil
					mu.Unlock()
					if err != nil {
						t.Errorf("SET %d: %v", key, err)
						return
					}
				}
			}(lane, caller)
		}
	}
	wg.Wait()

	end := time.Now()
	for key := uint64(0); key < keys; key++ {
		val, found, err := setup.Get("mix", key)
		if err != nil || !found {
			t.Fatalf("final GET %d: found=%v err=%v", key, found, err)
		}
		if msg := check(key, val, end); msg != "" {
			t.Errorf("key %d at the end: %s", key, msg)
		}
	}
}

// TestTraceServerOrderWaitSpan: the time a request spends queued behind a
// same-key predecessor, or a barrier behind the connection's writes, is a
// server_order_wait span on its trace.
func TestTraceServerOrderWaitSpan(t *testing.T) {
	ts, _ := startTracedServer(t, time.Nanosecond)
	c := dial(t, ts, 1)
	if err := c.Create("w"); err != nil {
		t.Fatal(err)
	}
	release := parkWriters(t, ts.db, 4)
	rc := dialRaw(t, ts.addr)
	rc.send(&wire.Request{Op: wire.OpSet, Seq: 1, NS: "w", Key: 1, Value: []byte("a"), Flags: wire.FlagTrace, TraceID: 0xa1})
	rc.send(&wire.Request{Op: wire.OpGet, Seq: 2, NS: "w", Key: 1, Flags: wire.FlagTrace, TraceID: 0xa2})
	rc.send(&wire.Request{Op: wire.OpPing, Seq: 3, Flags: wire.FlagTrace, TraceID: 0xa3})
	rc.flush()
	waitInFlight(t, ts.srv, 3)
	release()
	for seq := uint32(1); seq <= 3; seq++ {
		if resp := rc.recv(); resp.Seq != seq || resp.Status != wire.StatusOK {
			t.Fatalf("response %d: seq %d, %s", seq, resp.Seq, wire.StatusName(resp.Status))
		}
	}

	notes := make(map[string]string) // trace ID -> note of its order-wait span
	dump := ts.db.Tracer().Dump()
	for _, tr := range append(dump.Pinned, dump.Sampled...) {
		for _, sp := range tr.Spans {
			if sp.Name == "server_order_wait" {
				notes[strings.TrimLeft(tr.ID, "0")] = sp.Note
			}
		}
	}
	if want := map[string]string{"a2": "key", "a3": "barrier"}; fmt.Sprint(notes) != fmt.Sprint(want) {
		t.Fatalf("server_order_wait spans by trace = %v, want %v", notes, want)
	}
}

// TestServerDeadlineCountsOrderWait: a request's deadline clock starts at
// arrival, so one that spent its whole deadline queued behind a same-key
// predecessor times out instead of running late.
func TestServerDeadlineCountsOrderWait(t *testing.T) {
	ts := startServer(t, Config{Writers: 1}, 1)
	c := dial(t, ts, 1)
	if err := c.Create("d"); err != nil {
		t.Fatal(err)
	}
	release := parkWriters(t, ts.db, 1)
	rc := dialRaw(t, ts.addr)
	rc.send(&wire.Request{Op: wire.OpSet, Seq: 1, NS: "d", Key: 1, Value: []byte("first")})
	rc.send(&wire.Request{Op: wire.OpSet, Seq: 2, NS: "d", Key: 1, Value: []byte("late"), DeadlineMS: 20})
	rc.flush()
	waitInFlight(t, ts.srv, 2)
	time.Sleep(40 * time.Millisecond) // the second SET's deadline passes in the queue
	release()
	if resp := rc.recv(); resp.Seq != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("first SET: seq %d, %s", resp.Seq, wire.StatusName(resp.Status))
	}
	if resp := rc.recv(); resp.Seq != 2 || resp.Status != wire.StatusTimeout {
		t.Fatalf("SET queued past its deadline: seq %d, %s, want TIMEOUT", resp.Seq, wire.StatusName(resp.Status))
	}
	if val, found, err := c.Get("d", 1); err != nil || !found || string(val) != "first" {
		t.Fatalf("Get = %q, found=%v err=%v; the timed-out SET must leave no effect", val, found, err)
	}
}
