// Package client is the Go client for faced's wire protocol.
//
// A Client multiplexes requests over a small pool of TCP connections:
// each connection has one reader goroutine dispatching responses to
// waiting callers by sequence number, so any number of goroutines can
// issue requests concurrently and the server sees them pipelined.
//
// Transactional batches (Begin/Set/Del/Commit) are per-connection state
// on the server, so a Txn runs on a dedicated connection of its own.  Its
// writes are pipelined: Set and Del return once the request is buffered,
// the next request that waits for a reply sends them, and Commit collects
// their replies before it sends COMMIT.  A write the server refused
// poisons the Txn: Commit reports the refusal, which is not retryable,
// and commits nothing; Abort releases it.
//
// BUSY responses surface as ErrBusy: the server shed the request under
// overload or the transaction lost a deadlock.  Both are retryable, and
// the contract is that a retry waits first: the server refuses at once —
// a shed write never queues behind the connection's other requests — so a
// caller that retries without a pause, or with a fixed one shared by all
// its peers, turns the refusal into a busy loop and collides with the same
// peers again.  RetryBusy is that wait (jittered, exponential, bounded by
// a context); use it rather than a hand-rolled loop.  The load generator's
// measured phase counts BUSY instead of retrying, so overload stays
// visible.
//
// Deadlock victims are not only other clients' doing: the server runs one
// connection's pipelined writes concurrently (only requests naming the same
// key keep their order), so two fresh-key inserts sent back to back on one
// connection can deadlock with each other exactly as two connections' do.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/server/wire"
)

// Errors mapped from response statuses.
var (
	// ErrBusy is a retryable refusal (admission shed or deadlock victim).
	ErrBusy = errors.New("client: server busy")
	// ErrTimeout is a request whose deadline expired server-side.
	ErrTimeout = errors.New("client: request timed out")
	// ErrClosed is a request refused because the server is draining.
	ErrClosed = errors.New("client: server closed")
	// ErrConnClosed is a request that died with its connection.
	ErrConnClosed = errors.New("client: connection closed")
)

// Bounds of RetryBusy's wait: it doubles from the first to the last, each
// wait drawn from the upper half of its step.
const (
	busyBackoffMin = 100 * time.Microsecond
	busyBackoffMax = 102400 * time.Microsecond
)

// RetryBusy runs op until it returns anything but ErrBusy, waiting between
// attempts with jittered exponential backoff so that requests refused
// together do not come back together.  When ctx ends first it returns an
// error matching both ctx.Err() and ErrBusy.
//
// The steps below a millisecond are what is asked for, not what is slept:
// the host's timer rounds a short wait up (measured on the benchmark host:
// 200 µs asked, 1.12 ms slept at the median of 2 000, 1.04 ms at the least), so
// the first four steps all wait about a millisecond and what spreads them
// is the timer, not the draw.
func RetryBusy(ctx context.Context, op func() error) error {
	for step := busyBackoffMin; ; step = min(2*step, busyBackoffMax) {
		err := op()
		if !errors.Is(err, ErrBusy) {
			return err
		}
		wait := time.NewTimer(step/2 + rand.N(step/2))
		select {
		case <-wait.C:
		case <-ctx.Done():
			wait.Stop()
			return fmt.Errorf("client: gave up retrying: %w: %w", ctx.Err(), err)
		}
	}
}

// Options tunes a Client.
type Options struct {
	// Conns is the connection pool size (default 1).
	Conns int
	// DialTimeout bounds each dial (default 5s).  Dials are retried
	// until the timeout so a client may start before its server.
	DialTimeout time.Duration
	// RequestTimeout, when positive, is sent as the per-request deadline.
	RequestTimeout time.Duration
	// Trace stamps every request with a freshly minted trace ID in the
	// wire frame's trailing extension.  Traced requests join the server's
	// span journal under the client's ID, so a slow or shed request seen
	// client-side can be looked up in faced's /debug/traces.  Servers
	// predating the extension ignore it.
	Trace bool
}

// Client is a pooled, multiplexing connection to one server.
type Client struct {
	addr  string
	opts  Options
	conns []*Conn
	next  atomic.Uint64
}

// Dial connects the pool.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 1
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c := &Client{addr: addr, opts: opts}
	for i := 0; i < opts.Conns; i++ {
		conn, err := dialConn(addr, opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
	}
	return c, nil
}

// dialConn dials with retry until the timeout: servers and load
// generators start concurrently in scripts and CI.
func dialConn(addr string, opts Options) (*Conn, error) {
	deadline := time.Now().Add(opts.DialTimeout)
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return newConn(nc, opts), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Close closes every pooled connection.
func (c *Client) Close() error {
	var err error
	for _, conn := range c.conns {
		if cerr := conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func (c *Client) pick() *Conn {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.pick().roundTrip(&wire.Request{Op: wire.OpPing})
	return err
}

// Create ensures the namespace exists.
func (c *Client) Create(ns string) error {
	_, err := c.pick().roundTrip(&wire.Request{Op: wire.OpCreate, NS: ns})
	return err
}

// Get reads a key; the boolean reports whether it exists.
func (c *Client) Get(ns string, key uint64) ([]byte, bool, error) {
	resp, err := c.pick().roundTrip(&wire.Request{Op: wire.OpGet, NS: ns, Key: key})
	return decodeGet(resp, err)
}

func decodeGet(resp *wire.Response, err error) ([]byte, bool, error) {
	if err != nil {
		return nil, false, err
	}
	if resp.Status == wire.StatusNotFound {
		return nil, false, nil
	}
	val, err := wire.DecodeValue(resp.Body)
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Set writes a key.
func (c *Client) Set(ns string, key uint64, val []byte) error {
	_, err := c.pick().roundTrip(&wire.Request{Op: wire.OpSet, NS: ns, Key: key, Value: val})
	return err
}

// Del deletes a key; the boolean reports whether it existed.
func (c *Client) Del(ns string, key uint64) (bool, error) {
	resp, err := c.pick().roundTrip(&wire.Request{Op: wire.OpDel, NS: ns, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status != wire.StatusNotFound, nil
}

// Scan returns the pairs with lo <= key <= hi in key order, at most
// limit of them (0 = unlimited, bounded by the frame size).
func (c *Client) Scan(ns string, lo, hi uint64, limit int) ([]wire.KV, error) {
	resp, err := c.pick().roundTrip(&wire.Request{
		Op: wire.OpScan, NS: ns, Lo: lo, Hi: hi, Limit: uint32(limit),
	})
	if err != nil {
		return nil, err
	}
	return wire.DecodePairs(resp.Body)
}

// --- transactions --------------------------------------------------------

// Txn is a server-side batch: writes are buffered on the server, reads
// see the buffer merged over a committed snapshot, and Commit applies
// everything as one engine transaction.  A Txn owns a dedicated
// connection while open; Commit or Abort must be called exactly once,
// and Abort also after a Commit that failed with a refused write.
//
// Set and Del are pipelined: they put their request in the connection's
// buffer and return without waiting for the reply, so a batch of n writes
// costs no n round trips.  Get, Scan, Commit and Abort flush the buffer,
// since they wait for a reply of their own.  A write the server refused —
// an unknown namespace, a value over the size limit — poisons the Txn:
// Commit reports the first refusal, every time it is called, and never
// sends COMMIT.
type Txn struct {
	conn *Conn
	done bool
}

// Begin opens a batch on a dedicated connection: batch state lives on
// the server per connection, so sharing a pooled connection would sweep
// concurrent plain requests into the batch.  The connection is released
// when the Txn finishes.
func (c *Client) Begin() (*Txn, error) {
	conn, err := dialConn(c.addr, c.opts)
	if err != nil {
		return nil, err
	}
	if _, err := conn.roundTrip(&wire.Request{Op: wire.OpBegin}); err != nil {
		conn.Close()
		return nil, err
	}
	return &Txn{conn: conn}, nil
}

func (t *Txn) check() error {
	if t.done {
		return errors.New("client: transaction already finished")
	}
	return nil
}

// Get reads through the batch overlay: it sees the batch's own writes,
// those still in flight included.
func (t *Txn) Get(ns string, key uint64) ([]byte, bool, error) {
	if err := t.check(); err != nil {
		return nil, false, err
	}
	resp, err := t.conn.roundTrip(&wire.Request{Op: wire.OpGet, NS: ns, Key: key})
	return decodeGet(resp, err)
}

// Set buffers a write.  It returns once the request is in the
// connection's buffer, before the server has seen it, so val may be
// reused at once; it fails only with a connection that is gone.  Whether
// the server took the write, Commit reports.
func (t *Txn) Set(ns string, key uint64, val []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	return t.conn.send(&wire.Request{Op: wire.OpSet, NS: ns, Key: key, Value: val}, nil, false)
}

// Scan reads a range through the batch overlay.
func (t *Txn) Scan(ns string, lo, hi uint64, limit int) ([]wire.KV, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	resp, err := t.conn.roundTrip(&wire.Request{
		Op: wire.OpScan, NS: ns, Lo: lo, Hi: hi, Limit: uint32(limit),
	})
	if err != nil {
		return nil, err
	}
	return wire.DecodePairs(resp.Body)
}

// Del buffers a deletion, pipelined as Set is.
func (t *Txn) Del(ns string, key uint64) error {
	if err := t.check(); err != nil {
		return err
	}
	return t.conn.send(&wire.Request{Op: wire.OpDel, NS: ns, Key: key}, nil, false)
}

// Commit applies the batch as one transaction.  It first collects the
// replies of the pipelined writes: if the server refused one, the Txn is
// poisoned — Commit returns that refusal, never as ErrBusy or ErrTimeout,
// sends no COMMIT, and leaves the Txn open for Abort.  On ErrBusy or
// ErrTimeout the batch stays buffered server-side and Commit may be
// retried.
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.conn.drain(); err != nil {
		return err
	}
	_, err := t.conn.roundTrip(&wire.Request{Op: wire.OpCommit})
	if errors.Is(err, ErrBusy) || errors.Is(err, ErrTimeout) {
		return err // retryable: the batch is still open
	}
	t.done = true
	t.conn.Close()
	return err
}

// Abort drops the batch.
func (t *Txn) Abort() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	_, err := t.conn.roundTrip(&wire.Request{Op: wire.OpAbort})
	t.conn.Close()
	return err
}

// --- one multiplexed connection ------------------------------------------

// Conn is one wire connection.  Concurrent roundTrip calls interleave:
// the write side is serialized by a mutex, responses are matched to
// callers by sequence number.  A pipelined write (send without a reply
// channel) is matched to no caller: its reply only counts down unacked,
// and a refusal is kept for drain.
type Conn struct {
	opts Options
	nc   net.Conn

	wmu sync.Mutex // guards bw and seq; held while a request is written
	bw  *bufio.Writer
	seq uint32

	mu      sync.Mutex // guards pending, err, unacked and refused
	pending map[uint32]chan *wire.Response
	err     error
	// unacked counts the pipelined writes whose replies are still to
	// come; refused is the first of those replies that was not OK.
	// acked, on mu, wakes drain when unacked reaches zero or the
	// connection dies.
	unacked int
	refused error
	acked   sync.Cond
}

func newConn(nc net.Conn, opts Options) *Conn {
	c := &Conn{opts: opts, nc: nc, bw: bufio.NewWriter(nc), pending: make(map[uint32]chan *wire.Response)}
	c.acked.L = &c.mu
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight requests fail with
// ErrConnClosed.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	return nil
}

// fail marks the connection dead and wakes every waiter.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		c.nc.Close()
	}
	for seq, ch := range c.pending {
		close(ch)
		delete(c.pending, seq)
	}
	c.acked.Broadcast()
	c.mu.Unlock()
}

func (c *Conn) readLoop() {
	br := bufio.NewReader(c.nc)
	for {
		resp, err := wire.ReadResponse(br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.Seq]
		if ok {
			delete(c.pending, resp.Seq)
		} else if c.unacked > 0 {
			c.ack(resp)
		}
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// ack takes the reply of a pipelined write; c.mu is held.
func (c *Conn) ack(resp *wire.Response) {
	if resp.Status != wire.StatusOK && c.refused == nil {
		// Not wrapped: a refused write is not retried by a COMMIT, so
		// it must not match ErrBusy or ErrTimeout.
		c.refused = fmt.Errorf("client: batch write refused: %s: %s", wire.StatusName(resp.Status), wire.DecodeMessage(resp.Body))
	}
	if c.unacked--; c.unacked == 0 {
		c.acked.Broadcast()
	}
}

// drain flushes the pipelined writes and waits for their replies.  It
// returns the first refusal among them, if any; a connection that died
// first is left for the next request to report.
func (c *Conn) drain() error {
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.unacked > 0 && c.err == nil {
		c.acked.Wait()
	}
	return c.refused
}

// traceSeq feeds mintTraceID; the wall clock seeds the sequence so IDs
// from different client processes don't collide.
var traceSeq atomic.Uint64

func init() { traceSeq.Store(uint64(time.Now().UnixNano())) }

// mintTraceID returns a new nonzero trace ID: a time-seeded counter
// pushed through a splitmix64-style finalizer so IDs look random and
// spread across the ID space.
func mintTraceID() uint64 {
	for {
		z := traceSeq.Add(1) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// send writes req, stamped with the next sequence number, into the
// connection's buffer, and flushes the buffer if flush is set.  Its reply
// goes to ch, or, with a nil ch, is a pipelined write's for drain.
func (c *Conn) send(req *wire.Request, ch chan *wire.Response, flush bool) error {
	if d := c.opts.RequestTimeout; d > 0 {
		req.DeadlineMS = uint32(d.Milliseconds())
	}
	if c.opts.Trace {
		req.Flags |= wire.FlagTrace
		req.TraceID = mintTraceID()
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.seq++
	req.Seq = c.seq
	if ch != nil {
		c.pending[req.Seq] = ch
	} else {
		c.unacked++
	}
	c.mu.Unlock()
	// The socket is written with mu free, so the reader goroutine takes
	// replies while a write waits for the server to read: a server whose
	// reply queue is full reads no further until its replies are read.
	err := wire.WriteRequest(c.bw, req)
	if err == nil && flush {
		err = c.bw.Flush()
	}
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrConnClosed, err)
		c.fail(err)
	}
	return err
}

// roundTrip sends one request and waits for its response, mapping non-OK
// statuses to errors (except NOT_FOUND, which the typed wrappers
// interpret).
func (c *Conn) roundTrip(req *wire.Request) (*wire.Response, error) {
	ch := make(chan *wire.Response, 1)
	if err := c.send(req, ch, true); err != nil {
		return nil, err
	}
	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	switch resp.Status {
	case wire.StatusOK, wire.StatusNotFound:
		return resp, nil
	case wire.StatusBusy:
		return nil, fmt.Errorf("%w: %s", ErrBusy, wire.DecodeMessage(resp.Body))
	case wire.StatusTimeout:
		return nil, fmt.Errorf("%w: %s", ErrTimeout, wire.DecodeMessage(resp.Body))
	case wire.StatusClosed:
		return nil, fmt.Errorf("%w: %s", ErrClosed, wire.DecodeMessage(resp.Body))
	default:
		return nil, fmt.Errorf("client: %s: %s", wire.StatusName(resp.Status), wire.DecodeMessage(resp.Body))
	}
}
