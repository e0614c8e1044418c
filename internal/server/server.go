// Package server is faced's network front end: a TCP server exposing the
// engine's KV namespaces (internal/kv) over the length-prefixed binary
// protocol of internal/server/wire.
//
// Each connection gets a reader/writer goroutine pair and an ordered
// queue of response slots between them.  The reader decodes requests and
// gives each a slot in arrival order; the writer sends each slot's
// response once it is complete, flushing whenever it would otherwise wait
// — so a client may pipeline any number of requests without waiting, and
// responses come back in request order.
//
// Effects are ordered per key, not per connection.  A SET or DEL outside
// a batch waits for a commit force, so the reader hands it to a goroutine
// of its own and goes on to the next frame: one connection's pipelined
// writes run concurrently and share forces the way different connections'
// do (at most as many as the response queue is deep).  A GET outside a
// batch runs on the reader itself — it costs microseconds, less than
// handing it over would.  Requests of one connection that name the same
// (namespace, key), at least one of them a write, take effect in arrival
// order: a later one is queued behind the earlier (a pipelined SET k;
// GET k reads its own write, SET k=a; SET k=b leaves b); requests on
// different keys are not ordered against each other.  Everything else —
// PING, CREATE, SCAN, BEGIN/COMMIT/ABORT and every request while a batch
// is open — is a barrier: it waits for the connection's writes in flight
// and runs on the reader, seeing all of them.
//
// Write requests pass through an admission controller that generalizes
// the engine's WithMaxWriters semaphore to the network edge: a bounded
// number of writer tokens plus a bounded wait queue, with everything
// beyond both shed immediately as a retryable BUSY (see admission.go).
// Deadlock victims surface as BUSY too: in both cases the right client
// move is to back off and retry (client.RetryBusy).  Since a connection's
// writes run concurrently, its own pipelined inserts of fresh keys can
// deadlock with each other exactly as two connections' do.
//
// Every request but a batch write runs under a context bounded by the
// client-supplied deadline and the server's RequestTimeout, propagated
// into View/Update, so an expired or cancelled request aborts promptly
// even while queued on page locks.  The clock starts at arrival: time
// spent queued behind a same-key predecessor counts against the deadline.
//
// BEGIN opens a per-connection batch: SET and DEL are buffered (last
// write per key wins) and answered at once, with no deadline armed, GET
// and SCAN merge the buffered overlay over a committed snapshot, and
// COMMIT applies the whole batch as one Update transaction — one
// admission token, one commit force — in deterministic (namespace, key)
// order to keep lock acquisition order stable across concurrent batches.
// Each namespace's sets between two deletions go in as one run
// (kv.Namespace.SetRun), which logs one update record per leaf it
// changes.  A batch whose COMMIT fails with BUSY or TIMEOUT stays
// buffered so the client can retry COMMIT; ABORT drops it.
//
// Shutdown drains gracefully: listeners close, requests already
// executing finish and their responses reach the socket (a request holds
// the drain gate from arrival until its response is flushed; new ones are
// refused with CLOSED), stragglers past the drain deadline are cancelled
// through their request contexts, and only then do connections close.
// The engine is left to the caller to Close; reopening the same directory
// afterwards is the ordinary recovery path.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/kv"
	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/obs/trace"
	"github.com/reprolab/face/internal/server/wire"
)

// Defaults for Config fields left zero.
const (
	DefaultWriters        = 8
	DefaultRequestTimeout = 5 * time.Second
)

// Config tunes a Server.
type Config struct {
	// Writers bounds concurrently executing write requests (single-op
	// writes, CREATEs and batch COMMITs).  Default DefaultWriters.  It
	// should match the engine's MaxWriters, so a write admitted here is
	// not queued again behind the engine's cap.
	Writers int
	// Queue bounds how many write requests may wait for a writer token
	// beyond those executing; arrivals past it get BUSY.  Default
	// 4*Writers; negative disables waiting (immediate BUSY when all
	// tokens are taken).
	Queue int
	// RequestTimeout caps every request's context deadline, including
	// client-supplied ones.  Default DefaultRequestTimeout; negative
	// means no server-side cap.
	RequestTimeout time.Duration
	// Logf, when set, receives server lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Obs, when set, receives the server's request metrics: per-op
	// latency histograms (face_server_op_seconds{op="..."}), in-flight
	// and queue-depth gauges and admission counters.  faced passes the
	// engine's registry here so /metrics serves both layers.
	Obs *obs.Registry
	// Tracer, when set, gives every request a span trace: the server
	// adopts the client's wire trace ID (minting one otherwise), times
	// the admission wait, hands the trace to the engine through the
	// request context so the commit-path phases attach as spans, and
	// seals it with the tail-retention policy — deadlock victims and
	// admission sheds are pinned.  faced passes engine.DB.Tracer here.
	Tracer *trace.Tracer
}

// Stats is a snapshot of the server's request counters.
type Stats struct {
	Requests  int64          `json:"requests"`
	OK        int64          `json:"ok"`
	NotFound  int64          `json:"not_found"`
	Busy      int64          `json:"busy"`
	Timeout   int64          `json:"timeout"`
	Closed    int64          `json:"closed"`
	Errors    int64          `json:"errors"`
	Admission AdmissionStats `json:"admission"`
}

// Server serves one engine over TCP.  Create with New, start with Serve,
// stop with Shutdown.
type Server struct {
	db  *engine.DB
	kv  *kv.Store
	cfg Config
	adm *admission

	baseCtx    context.Context
	baseCancel context.CancelFunc

	gate     gate
	draining atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	connWG    sync.WaitGroup

	requests atomic.Int64
	statuses [8]atomic.Int64

	// ops holds one latency histogram per opcode (index = opcode byte).
	// All entries are nil without Config.Obs — obs histograms no-op on a
	// nil receiver, so the recording below needs no guard.
	ops [wire.OpAbort + 1]*obs.Histogram
}

// New wires a server to the database, attaching to (or initialising) its
// KV catalog.
func New(db *engine.DB, cfg Config) (*Server, error) {
	if cfg.Writers <= 0 {
		cfg.Writers = DefaultWriters
	}
	if cfg.Queue == 0 {
		cfg.Queue = 4 * cfg.Writers
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	store, err := kv.Open(ctx, db)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &Server{
		db:         db,
		kv:         store,
		cfg:        cfg,
		adm:        newAdmission(cfg.Writers, cfg.Queue),
		baseCtx:    ctx,
		baseCancel: cancel,
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
	}
	s.registerMetrics(cfg.Obs)
	return s, nil
}

// registerMetrics wires the server's request tracing into reg: one
// latency histogram per opcode, gauges for the live queue state and
// counters for the admission controller's decisions.  A nil reg leaves
// every histogram nil, which disables recording entirely.
func (s *Server) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for op := byte(wire.OpPing); op <= wire.OpAbort; op++ {
		s.ops[op] = reg.Histogram(
			`face_server_op_seconds{op="` + strings.ToLower(wire.OpName(op)) + `"}`)
	}
	reg.GaugeFunc("face_server_inflight", func() int64 { return int64(s.gate.count()) })
	reg.GaugeFunc("face_server_queue_depth", func() int64 { return int64(len(s.adm.queue)) })
	reg.GaugeFunc("face_server_writers_busy", func() int64 { return int64(len(s.adm.tokens)) })
	reg.CounterFunc("face_server_requests_total", s.requests.Load)
	reg.CounterFunc("face_server_admitted_total", s.adm.admitted.Load)
	reg.CounterFunc("face_server_rejected_total", s.adm.rejected.Load)
	reg.CounterFunc("face_server_admission_waits_total", s.adm.waits.Load)
	reg.CounterFunc("face_server_busy_total", s.statuses[wire.StatusBusy].Load)
	reg.CounterFunc("face_server_timeout_total", s.statuses[wire.StatusTimeout].Load)
	reg.CounterFunc("face_server_errors_total", s.statuses[wire.StatusErr].Load)
}

// InFlight returns the number of requests (plus open batches) currently
// holding the drain gate: arrived, and not yet answered on the socket.
func (s *Server) InFlight() int { return s.gate.count() }

// Store exposes the server's KV store (for preloading and tests).
func (s *Server) Store() *kv.Store { return s.kv }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on the listener until it closes (normally by
// Shutdown).  Several Serve calls may run on different listeners.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: Serve after Shutdown")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Shutdown drains the server: stop accepting, let the requests that have
// arrived finish and their responses reach the sockets until the context
// ends, cancel whatever is left, close the connections and return once
// every connection goroutine exited.  The engine itself is not closed; the
// caller owns it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()

	var late error
	select {
	case <-s.gate.drained():
	case <-ctx.Done():
		// Past the drain deadline: cancel every in-flight request through
		// the shared base context and wait for the aborts to unwind.  Lock
		// waits and admission waits observe the cancel directly; commits
		// already past their context check finish their bounded log force.
		// Connections close too, so an abandoned batch (which holds the
		// gate open awaiting its COMMIT) releases its hold.
		late = ctx.Err()
		s.baseCancel()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-s.gate.drained()
	}
	s.baseCancel()

	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	st := s.Stats()
	s.logf("server: drained (%d requests: %d ok, %d busy, %d timeout, %d errors; admission: %d admitted, %d shed, %d waited; %d in flight at exit)",
		st.Requests, st.OK, st.Busy, st.Timeout, st.Errors,
		st.Admission.Admitted, st.Admission.Rejected, st.Admission.Waits, s.gate.count())
	if late != nil {
		return fmt.Errorf("server: drain deadline passed, in-flight requests were cancelled: %w", late)
	}
	return nil
}

// Stats returns the request counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:  s.requests.Load(),
		OK:        s.statuses[wire.StatusOK].Load(),
		NotFound:  s.statuses[wire.StatusNotFound].Load(),
		Busy:      s.statuses[wire.StatusBusy].Load(),
		Timeout:   s.statuses[wire.StatusTimeout].Load(),
		Closed:    s.statuses[wire.StatusClosed].Load(),
		Errors:    s.statuses[wire.StatusErr].Load(),
		Admission: s.adm.Stats(),
	}
}

// --- connection handling -------------------------------------------------

// respQueueDepth is the per-connection response queue: requests whose
// responses are not yet written.  It is also the bound on a connection's
// handed-off requests — each owns a slot of this queue from arrival.
const respQueueDepth = 64

// slot is one request's place in its connection's response queue.  The
// reader enqueues slots in arrival order; the writer sends each one's
// response once it is complete, so responses leave in request order
// whatever order the requests finish in.
type slot struct {
	resp wire.Response
	// done is closed when a handed-off request has filled resp; nil for
	// a request the reader completed before enqueueing the slot.
	done chan struct{}
	// gated marks a request that entered the drain gate: the writer
	// leaves the gate for it once the response is flushed to the socket
	// (or the socket is known dead), so Shutdown never closes a
	// connection under an acknowledgement.
	gated bool
}

// batchVal is the buffered effect of one batch write on one key.
type batchVal struct {
	del bool
	val []byte
}

// keyRef names what a single-key request touches.
type keyRef struct {
	ns  string
	key uint64
}

// connState is the per-connection state.  The batch fields are touched
// only by the reader goroutine (every request while a batch is open runs
// there); tail is shared with the connection's handed-off requests.
type connState struct {
	inBatch  bool
	batch    map[string]map[uint64]batchVal
	batchOps int

	// handoffs counts the handed-off requests still running; a barrier
	// request and the connection's teardown wait on it.
	handoffs sync.WaitGroup
	// tail maps a key to the slot of its latest handed-off request still
	// running: the request a later one on that key must wait for.
	mu   sync.Mutex
	tail map[keyRef]*slot
}

// claim decides where a single-key request runs.  A write, or a read of a
// key with a handed-off request still running, is handed off: it becomes
// the key's tail and prev (nil if none) is what it must wait for.  Only
// the reader goroutine calls claim.
func (cs *connState) claim(k keyRef, sl *slot, write bool) (prev *slot, handoff bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	prev = cs.tail[k]
	if !write && prev == nil {
		return nil, false
	}
	if cs.tail == nil {
		cs.tail = make(map[keyRef]*slot)
	}
	cs.tail[k] = sl
	return prev, true
}

// release retires a finished handed-off request as its key's tail, unless
// a later request already took its place.
func (cs *connState) release(k keyRef, sl *slot) {
	cs.mu.Lock()
	if cs.tail[k] == sl {
		delete(cs.tail, k)
	}
	cs.mu.Unlock()
}

// idle reports whether no handed-off request is running.
func (cs *connState) idle() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.tail) == 0
}

func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	respCh := make(chan *slot, respQueueDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeResponses(c, respCh)
	}()

	cs := &connState{}
	// Teardown, in order: the handed-off requests finish (their slots are
	// already queued), the queue closes and the writer flushes what the
	// socket still takes, and only then does an abandoned batch release
	// its hold on the drain gate (see serve).
	defer func() {
		cs.handoffs.Wait()
		close(respCh)
		<-writerDone
		if cs.inBatch {
			s.gate.leave(1)
		}
	}()
	br := bufio.NewReader(c)
	for {
		req, err := wire.ReadRequest(br)
		if err != nil {
			return // client went away, or Shutdown closed the socket
		}
		respCh <- s.serve(cs, req)
	}
}

// writeResponses is a connection's writer goroutine: it sends the queued
// slots' responses in order, waiting for a slot that is not yet complete,
// and flushes whenever it would otherwise wait — the queue is empty or the
// next slot is still running — so a burst of pipelined responses shares
// buffer flushes.  A failed socket keeps it draining so neither the reader
// nor a handed-off request ever blocks on it.
func (s *Server) writeResponses(c net.Conn, respCh <-chan *slot) {
	bw := bufio.NewWriter(c)
	dead := false
	unflushed := 0 // gated responses written since the last flush
	flush := func() {
		if !dead && bw.Flush() != nil {
			dead = true
			c.Close()
		}
		s.gate.leave(unflushed)
		unflushed = 0
	}
	for sl := range respCh {
		if sl.done != nil {
			select {
			case <-sl.done:
			default:
				flush()
				<-sl.done
			}
		}
		if !dead && wire.WriteResponse(bw, &sl.resp) != nil {
			dead = true
			c.Close()
		}
		if sl.gated {
			unflushed++
		}
		if len(respCh) == 0 {
			flush()
		}
	}
	flush()
}

// singleKey reports whether the request is a GET, SET or DEL — the
// requests that, outside a batch, are ordered per key rather than per
// connection.
func singleKey(op byte) bool {
	return op == wire.OpGet || op == wire.OpSet || op == wire.OpDel
}

// serve takes one request from arrival to a queued slot.  Everything that
// belongs to the arrival happens here on the reader goroutine — the trace
// and the latency clock start, the drain gate is entered, the deadline
// context is armed — so time a request then spends waiting for its turn
// counts against it.  Where it runs is decided by what it may overlap
// with:
//
//   - a SET or DEL outside a batch is handed off to a goroutine of its
//     own, so the reader goes on to the next frame while this one waits
//     for its commit force, and one connection's pipelined writes share
//     forces the way different connections' do;
//   - a GET outside a batch runs right here, unless a handed-off request
//     on its key is still running, in which case it is handed off behind
//     it (a pipelined SET k; GET k reads its own write);
//   - anything else — and every request while a batch is open — is a
//     barrier: it waits for the connection's handed-off requests, then
//     runs here.
//
// The returned slot is complete (done == nil) or will be completed by the
// goroutine serve started.
func (s *Server) serve(cs *connState, req *wire.Request) *slot {
	s.requests.Add(1)
	sl := &slot{resp: wire.Response{Seq: req.Seq}}
	// Start the request's trace before anything that can wait, adopting
	// the client's wire trace ID when the request carried one (minting a
	// server-side ID otherwise, so old clients still show up in the
	// journal).  tr stays nil without a tracer; every use below is
	// nil-safe.
	var tr *trace.Trace
	if t := s.cfg.Tracer; t != nil {
		tr = t.Start(trace.ID(req.TraceID), strings.ToLower(wire.OpName(req.Op)))
	}
	var hist *obs.Histogram
	var t0 time.Time
	if int(req.Op) < len(s.ops) && s.ops[req.Op] != nil {
		hist, t0 = s.ops[req.Op], time.Now()
	}
	// A connection with an open batch is in-flight work: its requests may
	// still enter during a drain so the batch can reach its COMMIT.
	if !s.gate.enter(cs.inBatch) {
		s.complete(sl, hist, t0, tr, nil, errDraining)
		return sl
	}
	sl.gated = true

	if cs.inBatch && (req.Op == wire.OpSet || req.Op == wire.OpDel) {
		// A write of an open batch is only buffered: it never waits, so
		// it arms no deadline, and nothing of the connection's is in
		// flight to wait for (BEGIN was a barrier).
		s.complete(sl, hist, t0, tr, nil, s.bufferBatchWrite(cs, req))
		return sl
	}
	ctx, cancel := s.requestCtx(req)
	// The engine attaches its commit-path phase spans (lock waits, WAL
	// appends, the durable force) to the request trace it finds here.
	ctx = engine.WithTrace(ctx, tr)

	if !cs.inBatch && singleKey(req.Op) {
		k := keyRef{ns: req.NS, key: req.Key}
		if prev, handoff := cs.claim(k, sl, req.Op != wire.OpGet); handoff {
			sl.done = make(chan struct{})
			cs.handoffs.Add(1)
			go func() {
				defer cs.handoffs.Done()
				defer close(sl.done)
				defer cs.release(k, sl)
				defer cancel()
				if prev != nil {
					orderWait(tr, "key", func() { <-prev.done })
				}
				body, err := s.keyOp(ctx, tr, req)
				s.complete(sl, hist, t0, tr, body, err)
			}()
			return sl
		}
	} else if !cs.idle() {
		orderWait(tr, "barrier", cs.handoffs.Wait)
	}
	defer cancel()

	wasBatch := cs.inBatch
	body, err := s.dispatch(ctx, cs, tr, req)
	// Keep the gate's batch hold in sync: BEGIN takes an extra reference,
	// COMMIT/ABORT (or a commit error that drops the batch) releases it.
	if cs.inBatch && !wasBatch {
		s.gate.hold()
	} else if wasBatch && !cs.inBatch {
		s.gate.leave(1)
	}
	s.complete(sl, hist, t0, tr, body, err)
	return sl
}

// orderWait runs wait — for a same-key predecessor or for a barrier's
// handed-off requests — and records it as a server_order_wait span.
func orderWait(tr *trace.Trace, what string, wait func()) {
	if tr == nil {
		wait()
		return
	}
	t0 := time.Now()
	wait()
	tr.Span("server_order_wait", t0, time.Since(t0), 0, what)
}

// complete fills the slot's response from the request's outcome, seals
// its trace and records its status and latency.  The trace ID rides the
// op's latency histogram as the exemplar of whatever bucket the request
// lands in (a zero ID records a plain observation).
func (s *Server) complete(sl *slot, hist *obs.Histogram, t0 time.Time, tr *trace.Trace, body []byte, err error) {
	s.finishTrace(tr, err)
	sl.resp.Status, sl.resp.Body = s.finish(err, body)
	s.statuses[sl.resp.Status].Add(1)
	if hist != nil {
		hist.ObserveExemplar(time.Since(t0), uint64(tr.ID()))
	}
}

// finishTrace seals a request's trace, first pinning the anomalies the
// journal's tail retention must keep: a deadlock victim carries its
// wait-for cycle and held pages, an admission shed the BUSY it returned.
func (s *Server) finishTrace(tr *trace.Trace, err error) {
	if tr == nil {
		return
	}
	if err != nil {
		var derr *lock.DeadlockError
		switch {
		case errors.As(err, &derr):
			tr.Pin(trace.PinDeadlock, fmt.Sprintf("cycle: %s; held: %v", derr.CycleString(), derr.Held))
		case errors.Is(err, ErrBusy):
			tr.Pin(trace.PinShed, err.Error())
		}
	}
	s.cfg.Tracer.Finish(tr)
}

// acquire is adm.Acquire with the wait recorded as a server_admission
// span on the request's trace.
func (s *Server) acquire(ctx context.Context, tr *trace.Trace) error {
	if tr == nil {
		return s.adm.Acquire(ctx)
	}
	t0 := time.Now()
	err := s.adm.Acquire(ctx)
	note := ""
	if err != nil {
		note = "refused"
	}
	tr.Span("server_admission", t0, time.Since(t0), 0, note)
	return err
}

// requestCtx derives the request's context: the server base context (so
// a drain deadline cancels everything at once) bounded by the smaller of
// the client deadline and the configured cap.
func (s *Server) requestCtx(req *wire.Request) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if timeout < 0 {
		timeout = 0
	}
	if d := time.Duration(req.DeadlineMS) * time.Millisecond; d > 0 && (timeout == 0 || d < timeout) {
		timeout = d
	}
	if timeout > 0 {
		return context.WithTimeout(s.baseCtx, timeout)
	}
	return context.WithCancel(s.baseCtx)
}

// errNotFound marks a missing key on the Get/Del path.
var errNotFound = errors.New("server: key not found")

// errDraining refuses a request that arrived after Shutdown began.
var errDraining = errors.New("server is draining")

// finish maps an error to the wire status and body.
func (s *Server) finish(err error, body []byte) (byte, []byte) {
	switch {
	case err == nil:
		return wire.StatusOK, body
	case errors.Is(err, errNotFound):
		return wire.StatusNotFound, nil
	case errors.Is(err, ErrBusy), errors.Is(err, engine.ErrDeadlock):
		return wire.StatusBusy, wire.MessageBody(err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return wire.StatusTimeout, wire.MessageBody(err.Error())
	case errors.Is(err, engine.ErrClosed), errors.Is(err, engine.ErrCrashed), errors.Is(err, errDraining):
		return wire.StatusClosed, wire.MessageBody(err.Error())
	default:
		return wire.StatusErr, wire.MessageBody(err.Error())
	}
}

// dispatch runs a request on the reader goroutine: a barrier request, any
// request of an open batch, or a GET nothing is queued ahead of.
func (s *Server) dispatch(ctx context.Context, cs *connState, tr *trace.Trace, req *wire.Request) ([]byte, error) {
	switch req.Op {
	case wire.OpPing:
		return nil, nil
	case wire.OpCreate:
		if err := s.acquire(ctx, tr); err != nil {
			return nil, err
		}
		defer s.adm.Release()
		_, err := s.kv.Create(ctx, req.NS)
		return nil, err
	case wire.OpGet, wire.OpSet, wire.OpDel:
		if cs.inBatch {
			return s.batchGet(ctx, cs, req)
		}
		return s.keyOp(ctx, tr, req)
	case wire.OpScan:
		return s.doScan(ctx, cs, req)
	case wire.OpBegin:
		if cs.inBatch {
			return nil, errors.New("server: BEGIN inside an open batch")
		}
		cs.inBatch = true
		cs.batch = make(map[string]map[uint64]batchVal)
		cs.batchOps = 0
		return nil, nil
	case wire.OpCommit:
		return nil, s.doCommit(ctx, cs, tr)
	case wire.OpAbort:
		if !cs.inBatch {
			return nil, errors.New("server: ABORT without a batch")
		}
		cs.dropBatch()
		return nil, nil
	default:
		return nil, fmt.Errorf("server: unknown opcode %d", req.Op)
	}
}

func (cs *connState) dropBatch() {
	cs.inBatch = false
	cs.batch = nil
	cs.batchOps = 0
}

// bufferWrite records a batch write, last write per key winning.
func (cs *connState) bufferWrite(ns string, key uint64, v batchVal) {
	m := cs.batch[ns]
	if m == nil {
		m = make(map[uint64]batchVal)
		cs.batch[ns] = m
	}
	m[key] = v
	cs.batchOps++
}

// batchGet is a GET inside an open batch: it is answered from the buffer
// when the batch wrote the key and from the committed state otherwise.
func (s *Server) batchGet(ctx context.Context, cs *connState, req *wire.Request) ([]byte, error) {
	if v, ok := cs.batch[req.NS][req.Key]; ok {
		if v.del {
			return nil, errNotFound
		}
		return wire.ValueBody(v.val), nil
	}
	return s.doGet(ctx, req)
}

// bufferBatchWrite is a SET or DEL inside an open batch: it checks the
// write and buffers it.
func (s *Server) bufferBatchWrite(cs *connState, req *wire.Request) error {
	v := batchVal{del: true}
	if req.Op == wire.OpSet {
		if err := checkValue(req.Value); err != nil {
			return err
		}
		v = batchVal{val: append([]byte(nil), req.Value...)}
	}
	if _, err := s.kv.Namespace(req.NS); err != nil {
		return err
	}
	cs.bufferWrite(req.NS, req.Key, v)
	return nil
}

// keyOp is a GET, SET or DEL outside a batch.  It touches no connection
// state, so it runs on the reader goroutine or on a handed-off request's
// own alike.
func (s *Server) keyOp(ctx context.Context, tr *trace.Trace, req *wire.Request) ([]byte, error) {
	switch req.Op {
	case wire.OpGet:
		return s.doGet(ctx, req)
	case wire.OpSet:
		return nil, s.doSet(ctx, tr, req)
	default:
		return nil, s.doDel(ctx, tr, req)
	}
}

func checkValue(val []byte) error {
	if len(val) > kv.MaxValueSize {
		return fmt.Errorf("%w: %d bytes (max %d)", kv.ErrTooLarge, len(val), kv.MaxValueSize)
	}
	return nil
}

func (s *Server) doGet(ctx context.Context, req *wire.Request) ([]byte, error) {
	ns, err := s.kv.Namespace(req.NS)
	if err != nil {
		return nil, err
	}
	var body []byte
	err = s.db.View(ctx, func(tx *engine.Tx) error {
		val, found, err := ns.Get(tx, req.Key)
		if err != nil {
			return err
		}
		if !found {
			return errNotFound
		}
		body = wire.ValueBody(val)
		return nil
	})
	return body, err
}

func (s *Server) doSet(ctx context.Context, tr *trace.Trace, req *wire.Request) error {
	if err := checkValue(req.Value); err != nil {
		return err
	}
	ns, err := s.kv.Namespace(req.NS)
	if err != nil {
		return err
	}
	if err := s.acquire(ctx, tr); err != nil {
		return err
	}
	defer s.adm.Release()
	return s.db.Update(ctx, func(tx *engine.Tx) error {
		return ns.Set(tx, nil, req.Key, req.Value)
	})
}

func (s *Server) doDel(ctx context.Context, tr *trace.Trace, req *wire.Request) error {
	ns, err := s.kv.Namespace(req.NS)
	if err != nil {
		return err
	}
	if err := s.acquire(ctx, tr); err != nil {
		return err
	}
	defer s.adm.Release()
	var existed bool
	if err := s.db.Update(ctx, func(tx *engine.Tx) error {
		var err error
		existed, err = ns.Delete(tx, req.Key)
		return err
	}); err != nil {
		return err
	}
	if !existed {
		return errNotFound
	}
	return nil
}

func (s *Server) doScan(ctx context.Context, cs *connState, req *wire.Request) ([]byte, error) {
	ns, err := s.kv.Namespace(req.NS)
	if err != nil {
		return nil, err
	}
	limit := int(req.Limit)
	scanLimit := limit
	var overlay map[uint64]batchVal
	if cs.inBatch {
		overlay = cs.batch[req.NS]
		if limit > 0 {
			// Buffered deletions may knock committed keys out of the
			// result: scan far enough past the limit to replace them.
			scanLimit = limit + len(overlay)
		}
	}
	var pairs []wire.KV
	err = s.db.View(ctx, func(tx *engine.Tx) error {
		pairs = pairs[:0]
		return ns.Scan(tx, req.Lo, req.Hi, scanLimit, func(key uint64, val []byte) error {
			pairs = append(pairs, wire.KV{Key: key, Value: append([]byte(nil), val...)})
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	if len(overlay) > 0 {
		pairs = mergeOverlay(pairs, overlay, req.Lo, req.Hi)
	}
	if limit > 0 && len(pairs) > limit {
		pairs = pairs[:limit]
	}
	return wire.PairsBody(pairs), nil
}

// mergeOverlay applies a batch's buffered writes over a committed scan
// result, keeping key order.
func mergeOverlay(pairs []wire.KV, overlay map[uint64]batchVal, lo, hi uint64) []wire.KV {
	out := pairs[:0]
	for _, p := range pairs {
		if v, ok := overlay[p.Key]; ok {
			if v.del {
				continue
			}
			p.Value = v.val
		}
		out = append(out, p)
	}
	seen := make(map[uint64]bool, len(out))
	for _, p := range out {
		seen[p.Key] = true
	}
	added := false
	for key, v := range overlay {
		if v.del || key < lo || key > hi || seen[key] {
			continue
		}
		out = append(out, wire.KV{Key: key, Value: v.val})
		added = true
	}
	if added {
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	}
	return out
}

func (s *Server) doCommit(ctx context.Context, cs *connState, tr *trace.Trace) error {
	if !cs.inBatch {
		return errors.New("server: COMMIT without a batch")
	}
	if cs.batchOps == 0 {
		cs.dropBatch()
		return nil
	}
	// Resolve namespaces and order the work deterministically so
	// concurrent batches acquire page locks in a stable order.
	names := make([]string, 0, len(cs.batch))
	for name := range cs.batch {
		names = append(names, name)
	}
	sort.Strings(names)
	spaces := make([]*kv.Namespace, len(names))
	keys := make([][]uint64, len(names))
	for i, name := range names {
		ns, err := s.kv.Namespace(name)
		if err != nil {
			cs.dropBatch()
			return err
		}
		spaces[i] = ns
		keys[i] = slices.Sorted(maps.Keys(cs.batch[name]))
	}
	if err := s.acquire(ctx, tr); err != nil {
		return err
	}
	defer s.adm.Release()
	err := s.db.Update(ctx, func(tx *engine.Tx) error {
		for i, name := range names {
			if err := applyWrites(tx, spaces[i], keys[i], cs.batch[name]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		// BUSY and TIMEOUT keep the batch buffered so the client can
		// retry COMMIT; anything else drops it.
		status, _ := s.finish(err, nil)
		if status != wire.StatusBusy && status != wire.StatusTimeout {
			cs.dropBatch()
		}
		return err
	}
	cs.dropBatch()
	return nil
}

// applyWrites applies one namespace's buffered writes w in the order of
// keys, ascending: each run of sets between deletions as one SetRun, which
// logs one update record per leaf it changes.
func applyWrites(tx *engine.Tx, ns *kv.Namespace, keys []uint64, w map[uint64]batchVal) error {
	vals := make([][]byte, 0, len(keys))
	run := 0 // where the run of sets in vals starts in keys
	for i, k := range keys {
		v := w[k]
		if !v.del {
			vals = append(vals, v.val)
			continue
		}
		if err := ns.SetRun(tx, keys[run:i], vals); err != nil {
			return err
		}
		if _, err := ns.Delete(tx, k); err != nil {
			return err
		}
		vals, run = vals[:0], i+1
	}
	return ns.SetRun(tx, keys[run:], vals)
}

// --- drain gate ----------------------------------------------------------

// gate counts in-flight work — requests from arrival until their response
// is flushed, plus open batches — and refuses new entries once closed; it replaces a sync.WaitGroup
// because Add-after-Wait races are exactly the drain scenario.
type gate struct {
	mu     sync.Mutex
	n      int
	closed bool
	idle   chan struct{}
}

// enter admits one request; false means the gate is closed.  held is
// true when the caller already owns a live reference (an open batch):
// its requests keep flowing during a drain so the batch can finish.
func (g *gate) enter(held bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed && !held {
		return false
	}
	g.n++
	return true
}

// count reports the gate's live reference count (in-flight requests plus
// open batches), for the in-flight gauge and the shutdown log line.
func (g *gate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// hold takes an extra reference; the caller must already be inside the
// gate (so the count cannot have reached zero).
func (g *gate) hold() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// leave drops n references.
func (g *gate) leave(n int) {
	if n == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n -= n
	if g.closed && g.n == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
}

// drained closes the gate and returns a channel that closes once the
// last admitted request leaves (immediately when none are in flight).
func (g *gate) drained() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	ch := make(chan struct{})
	if g.n == 0 {
		close(ch)
		return ch
	}
	if g.idle == nil {
		g.idle = ch
		return ch
	}
	return g.idle
}
