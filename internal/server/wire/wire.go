// Package wire defines the length-prefixed binary protocol spoken
// between faced and its clients.  Both internal/server and
// internal/server/client encode and decode through this package, so the
// frame layout lives in exactly one place.
//
// Every frame is a 4-byte little-endian length followed by that many
// bytes of body.  Request body:
//
//	offset  size  field
//	0       1     opcode
//	1       4     sequence number (echoed in the response)
//	5       4     deadline in milliseconds (0 = server default)
//	9       1     namespace length
//	10      n     namespace
//	...           op-specific payload
//
// Op-specific payloads:
//
//	Get/Del:  key u64
//	Set:      key u64, value length u32, value bytes
//	Scan:     lo u64, hi u64, limit u32
//	others:   empty
//
// After the op-specific payload a request may carry an optional
// extension block: one flags byte followed by the payloads of the set
// flag bits in bit order.  Bit 0 (FlagTrace) carries a u64 trace ID.
// The block is backward compatible in both directions: decoders have
// always ignored bytes past the op payload, so an old server simply
// skips the extension, and an old client simply omits it.  A decoder
// that meets a flag bit it does not know stops interpreting there (it
// cannot know the payload's length) — the frame's length prefix means
// unknown extensions can never desynchronize the stream, only go
// unread.
//
// Response body:
//
//	offset  size  field
//	0       1     status
//	1       4     sequence number
//	5       ...   status/op-specific payload
//
// An OK Get carries [value length u32][value]; an OK Scan carries
// [count u32] then count * ([key u64][value length u32][value]); any
// non-OK status carries [message length u32][message].
//
// Ordering.  Responses to one connection are delivered in request order,
// so a client may pipeline: the sequence number is a convenience for
// demultiplexing concurrent callers, not a reordering mechanism.  The
// order of effects is per key: pipelined requests of one connection that
// name the same (namespace, key), at least one of them a Set or Del, take
// effect in the order sent — a Get sent after a Set of its key reads that
// Set — while single-key requests on different keys may execute
// concurrently and commit in any order.  Every other request (Ping,
// Create, Scan, Begin, Commit, Abort, and any request inside a batch)
// takes effect after all requests sent before it on the connection and
// before all sent after it.  So a client may send a batch's writes without
// waiting for their replies, as the Go client's Txn does: each is answered
// OK once buffered, or refused, in its place in the reply order, and a
// Get or Commit sent after them sees them all.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// MaxFrame bounds a frame body; larger frames are a protocol error.
const MaxFrame = 1 << 20

// Opcodes.
const (
	OpPing byte = iota + 1
	OpCreate
	OpGet
	OpSet
	OpDel
	OpScan
	OpBegin
	OpCommit
	OpAbort
)

// OpName names an opcode for diagnostics.
func OpName(op byte) string {
	switch op {
	case OpPing:
		return "PING"
	case OpCreate:
		return "CREATE"
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	case OpBegin:
		return "BEGIN"
	case OpCommit:
		return "COMMIT"
	case OpAbort:
		return "ABORT"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// Response statuses.
const (
	// StatusOK is a successful request.
	StatusOK byte = iota + 1
	// StatusNotFound is a Get or Del of a key that does not exist.
	StatusNotFound
	// StatusBusy is a retryable refusal: admission control shed the
	// request under overload, or the transaction lost a deadlock.  The
	// client should back off and retry.
	StatusBusy
	// StatusTimeout is a request whose deadline expired or whose context
	// was cancelled mid-flight; the transaction was rolled back.
	StatusTimeout
	// StatusClosed is a request received while the server is draining or
	// after the engine closed; the connection will not serve again.
	StatusClosed
	// StatusErr is any other failure; the message explains it.
	StatusErr
)

// StatusName names a status for diagnostics.
func StatusName(s byte) string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBusy:
		return "BUSY"
	case StatusTimeout:
		return "TIMEOUT"
	case StatusClosed:
		return "CLOSED"
	case StatusErr:
		return "ERR"
	default:
		return fmt.Sprintf("status(%d)", s)
	}
}

// ErrFrameTooLarge reports a frame beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Request extension flag bits.
const (
	// FlagTrace marks a u64 trace ID following the flags byte: the
	// client minted a request-scoped trace and wants server-side spans
	// attributed to it.
	FlagTrace byte = 1 << 0
)

// Request is one decoded client request.
type Request struct {
	Op         byte
	Seq        uint32
	DeadlineMS uint32
	NS         string
	Key        uint64 // Get, Set, Del
	Lo, Hi     uint64 // Scan
	Limit      uint32 // Scan
	Value      []byte // Set
	// Flags and TraceID are the optional trailing extension; both zero
	// on frames from clients that predate it.
	Flags   byte
	TraceID uint64
}

// Response is one decoded server response.  Body is the status/op-specific
// payload; the Decode* helpers interpret it.
type Response struct {
	Status byte
	Seq    uint32
	Body   []byte
}

// KV is one Scan result pair.
type KV struct {
	Key   uint64
	Value []byte
}

func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	_, _ = r.Discard(4) // the four bytes Peek returned: it cannot fail
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return body, nil
}

// writeFrame writes a frame built with its length prefix in place: four
// bytes of room, then the body.
func writeFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// WriteRequest encodes and writes one request frame.
func WriteRequest(w io.Writer, req *Request) error {
	if len(req.NS) > 255 {
		return fmt.Errorf("wire: namespace %q too long", req.NS)
	}
	body := make([]byte, 4, 4+10+len(req.NS)+recSize(req))
	body = append(body, req.Op)
	body = binary.LittleEndian.AppendUint32(body, req.Seq)
	body = binary.LittleEndian.AppendUint32(body, req.DeadlineMS)
	body = append(body, byte(len(req.NS)))
	body = append(body, req.NS...)
	switch req.Op {
	case OpGet, OpDel:
		body = binary.LittleEndian.AppendUint64(body, req.Key)
	case OpSet:
		body = binary.LittleEndian.AppendUint64(body, req.Key)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(req.Value)))
		body = append(body, req.Value...)
	case OpScan:
		body = binary.LittleEndian.AppendUint64(body, req.Lo)
		body = binary.LittleEndian.AppendUint64(body, req.Hi)
		body = binary.LittleEndian.AppendUint32(body, req.Limit)
	}
	if req.Flags != 0 {
		body = append(body, req.Flags)
		if req.Flags&FlagTrace != 0 {
			body = binary.LittleEndian.AppendUint64(body, req.TraceID)
		}
	}
	return writeFrame(w, body)
}

func recSize(req *Request) int {
	n := 0
	switch req.Op {
	case OpGet, OpDel:
		n = 8
	case OpSet:
		n = 12 + len(req.Value)
	case OpScan:
		n = 20
	}
	if req.Flags != 0 {
		n += 9
	}
	return n
}

// ReadRequest reads and decodes one request frame.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if len(body) < 10 {
		return nil, fmt.Errorf("wire: request frame of %d bytes is shorter than its header", len(body))
	}
	req := &Request{
		Op:         body[0],
		Seq:        binary.LittleEndian.Uint32(body[1:]),
		DeadlineMS: binary.LittleEndian.Uint32(body[5:]),
	}
	nsLen := int(body[9])
	rest := body[10:]
	if len(rest) < nsLen {
		return nil, fmt.Errorf("wire: request namespace truncated")
	}
	req.NS = intern(rest[:nsLen])
	rest = rest[nsLen:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("wire: %s payload truncated (%d of %d bytes)", OpName(req.Op), len(rest), n)
		}
		return nil
	}
	switch req.Op {
	case OpGet, OpDel:
		if err := need(8); err != nil {
			return nil, err
		}
		req.Key = binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
	case OpSet:
		if err := need(12); err != nil {
			return nil, err
		}
		req.Key = binary.LittleEndian.Uint64(rest)
		vlen := int(binary.LittleEndian.Uint32(rest[8:]))
		if len(rest) < 12+vlen {
			return nil, fmt.Errorf("wire: SET value truncated")
		}
		req.Value = rest[12 : 12+vlen]
		rest = rest[12+vlen:]
	case OpScan:
		if err := need(20); err != nil {
			return nil, err
		}
		req.Lo = binary.LittleEndian.Uint64(rest)
		req.Hi = binary.LittleEndian.Uint64(rest[8:])
		req.Limit = binary.LittleEndian.Uint32(rest[16:])
		rest = rest[20:]
	}
	readExtension(req, rest)
	return req, nil
}

// names interns namespace names: a request's name is a string the table
// already holds whenever the name was seen before and no other name has
// taken its place since.  The table is bounded by its size; a name that
// hashes to a taken entry replaces it.  Like a sync.Pool, it is a cache
// no caller can observe: intern returns a string equal to its bytes
// either way.
var names [256]atomic.Pointer[string]

func intern(b []byte) string {
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	e := &names[h%uint32(len(names))]
	if p := e.Load(); p != nil && *p == string(b) {
		return *p
	}
	p := new(string)
	*p = string(b)
	e.Store(p)
	return *p
}

// readExtension decodes the optional trailing flags block.  It is
// deliberately forgiving: a truncated or unrecognized extension is
// treated as absent rather than as a protocol error, because every
// frame that reaches here already parsed a complete request — the
// extension only adds forensics, never semantics.
func readExtension(req *Request, rest []byte) {
	if len(rest) == 0 {
		return
	}
	flags := rest[0]
	rest = rest[1:]
	if flags&FlagTrace != 0 && len(rest) >= 8 {
		req.Flags |= FlagTrace
		req.TraceID = binary.LittleEndian.Uint64(rest)
	}
	// Any further flag bits have payloads this decoder cannot size, so
	// interpretation stops here; the length prefix already consumed the
	// bytes, so the stream stays framed.
}

// WriteResponse encodes and writes one response frame.
func WriteResponse(w io.Writer, resp *Response) error {
	body := make([]byte, 4, 4+5+len(resp.Body))
	body = append(body, resp.Status)
	body = binary.LittleEndian.AppendUint32(body, resp.Seq)
	body = append(body, resp.Body...)
	return writeFrame(w, body)
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if len(body) < 5 {
		return nil, fmt.Errorf("wire: response frame of %d bytes is shorter than its header", len(body))
	}
	return &Response{
		Status: body[0],
		Seq:    binary.LittleEndian.Uint32(body[1:]),
		Body:   body[5:],
	}, nil
}

// ValueBody encodes an OK Get payload.
func ValueBody(val []byte) []byte {
	body := make([]byte, 0, 4+len(val))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(val)))
	return append(body, val...)
}

// DecodeValue decodes an OK Get payload.
func DecodeValue(body []byte) ([]byte, error) {
	if len(body) < 4 {
		return nil, errors.New("wire: value payload truncated")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if len(body) < 4+n {
		return nil, errors.New("wire: value bytes truncated")
	}
	return body[4 : 4+n], nil
}

// PairsBody encodes an OK Scan payload.
func PairsBody(pairs []KV) []byte {
	size := 4
	for _, p := range pairs {
		size += 12 + len(p.Value)
	}
	body := make([]byte, 0, size)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(pairs)))
	for _, p := range pairs {
		body = binary.LittleEndian.AppendUint64(body, p.Key)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(p.Value)))
		body = append(body, p.Value...)
	}
	return body
}

// DecodePairs decodes an OK Scan payload.
func DecodePairs(body []byte) ([]KV, error) {
	if len(body) < 4 {
		return nil, errors.New("wire: scan payload truncated")
	}
	count := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	pairs := make([]KV, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 12 {
			return nil, errors.New("wire: scan pair truncated")
		}
		key := binary.LittleEndian.Uint64(body)
		vlen := int(binary.LittleEndian.Uint32(body[8:]))
		if len(body) < 12+vlen {
			return nil, errors.New("wire: scan value truncated")
		}
		pairs = append(pairs, KV{Key: key, Value: body[12 : 12+vlen]})
		body = body[12+vlen:]
	}
	return pairs, nil
}

// MessageBody encodes a non-OK status payload.
func MessageBody(msg string) []byte {
	body := make([]byte, 0, 4+len(msg))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(msg)))
	return append(body, msg...)
}

// DecodeMessage decodes a non-OK status payload; a malformed payload
// yields an empty message rather than an error (the status already tells
// the story).
func DecodeMessage(body []byte) string {
	if len(body) < 4 {
		return ""
	}
	n := int(binary.LittleEndian.Uint32(body))
	if len(body) < 4+n {
		return ""
	}
	return string(body[4 : 4+n])
}
