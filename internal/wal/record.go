// Package wal implements the write-ahead log used by the engine for
// transaction atomicity and durability.
//
// The two recovery principles the paper relies on (Section 4) are enforced
// here: write-ahead logging (a page may only be evicted after its log
// records are durable) and commit-time force-write of the log tail.  The
// log lives on its own device and is written strictly sequentially; the
// log sequence number (LSN) of a record is its byte offset in the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/reprolab/face/internal/page"
)

// TxID identifies a transaction.  TxID 0 is reserved for system activity
// (checkpoints, loading) that is not subject to undo.
type TxID uint64

// RecordType enumerates log record kinds.
type RecordType uint8

// Log record types.
const (
	// TypeUpdate records what one Edit did to one page as a list of
	// operations (package page), each with what redoing and undoing it
	// takes.
	TypeUpdate RecordType = iota + 1
	// TypeCompensation records the rollback of one update record of the
	// same transaction: the inverse operations, without undo information.
	// It is never undone, and it tells restart that the transaction's
	// newest update not yet compensated needs no undo.
	TypeCompensation
	// TypeFormat records that a freshly allocated page was initialised as
	// an empty page of PageType and then, if Ops is not empty, given its
	// first contents by those operations, without undo information.
	// Redo-only.
	TypeFormat
	// TypeCommit marks a transaction as committed.
	TypeCommit
	// TypeAbort marks a transaction as rolled back.
	TypeAbort
	// TypeCheckpointBegin marks the start of a fuzzy checkpoint.
	TypeCheckpointBegin
	// TypeCheckpointEnd marks the end of a checkpoint; its payload is the
	// LSN of the matching TypeCheckpointBegin record.
	TypeCheckpointEnd
	// TypePageWritten notes page images that are durable on the data
	// device, each with the pageLSN of the image written.  It is logged
	// only once the writes are durable and is never forced: a note lost in
	// a crash costs restart a page read, nothing more.
	TypePageWritten
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case TypeUpdate:
		return "update"
	case TypeCompensation:
		return "compensation"
	case TypeFormat:
		return "format"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeCheckpointBegin:
		return "checkpoint-begin"
	case TypeCheckpointEnd:
		return "checkpoint-end"
	case TypePageWritten:
		return "page-written"
	default:
		return fmt.Sprintf("record(%d)", uint8(t))
	}
}

// Record is a single log record.  Not every field is meaningful for every
// type; see the type constants.
type Record struct {
	// LSN is assigned by the log manager when the record is appended.
	LSN page.LSN
	// Type is the record kind.
	Type RecordType
	// TxID is the owning transaction (0 for system records).
	TxID TxID
	// PageID is the affected page for update, compensation and format
	// records.
	PageID page.ID
	// Ops is the operation list of update, compensation and format
	// records, in package page's encoding (page.Writer.Ops).
	Ops []byte
	// PageType is the type a format record initialises the page as.
	PageType page.Type
	// Written lists the pages of a page-written record.
	Written []PageWrite
	// Offset, Before and After describe an update record of a single
	// write when Ops is nil, which is how tests and micro-benchmarks build
	// one by hand; decoding always fills Ops instead.  After also
	// holds the encoded begin LSN of a checkpoint-end record.
	Offset uint16
	Before []byte
	After  []byte
}

// PageWrite is one entry of a page-written record: the image of page ID
// with pageLSN LSN is durable on the data device.
type PageWrite struct {
	ID  page.ID
	LSN page.LSN
}

// pageWriteSize is the log cost of one PageWrite.
const pageWriteSize = 8 + 8

// Errors returned by record encoding and decoding.
var (
	ErrCorrupt   = errors.New("wal: corrupt log record")
	ErrTruncated = errors.New("wal: truncated log")
	// ErrInvalid is returned by Append for a record that could not be
	// decoded again (operations that are malformed or leave the page).
	ErrInvalid = errors.New("wal: invalid log record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record wire format (little endian):
//
//	u32 length of everything after this field
//	u32 CRC-32C of everything after this field
//	u8  type
//	u64 txid
//	u64 pageid
//
// followed, by type, with
//
//	update, compensation:  the operations (page.Writer), with undo
//	                       information in update records only
//	format:                u16 page type, then redo-only operations
//	                       (none for an empty page)
//	checkpoint-end:        u64 LSN of the checkpoint-begin record
//	page-written:          per page, u64 page id and u64 pageLSN
//	commit, abort, checkpoint-begin: nothing
//
// recordHeaderSize is also the size of the smallest record (a commit); the
// pipeline sizes its publication ring by it.
const recordHeaderSize = 4 + 4 + 1 + 8 + 8

// single reports whether r is an update record of one write built with
// Offset, Before and After.
func (r *Record) single() bool { return r.Ops == nil && r.Type == TypeUpdate }

// check reports whether decodeRecord would accept the record once encoded.
// Its checks of the record's shape cost O(1); the re-parse of an operation
// list runs in the race build only (appendCheckOps).
func (r *Record) check() error {
	switch {
	case r.Type == TypePageWritten && len(r.Written) == 0:
		return fmt.Errorf("%w: page-written record without pages", ErrInvalid)
	case r.single():
		if n := len(r.After); n == 0 || len(r.Before) != n || int(r.Offset)+n > page.Size {
			return fmt.Errorf("%w: a write of %d and %d bytes at %d", ErrInvalid, len(r.Before), n, r.Offset)
		}
	case r.Type == TypeUpdate && len(r.Ops) == 0:
		return fmt.Errorf("%w: update record without operations", ErrInvalid)
	case r.Type == TypeUpdate || r.Type == TypeCompensation || r.Type == TypeFormat:
		if err := appendCheckOps(r.Ops, r.Type == TypeUpdate); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	return nil
}

// encodedSize returns the full on-log size of the record in bytes.
func (r *Record) encodedSize() int {
	n := recordHeaderSize
	switch r.Type {
	case TypeUpdate, TypeCompensation:
		if r.single() {
			return n + page.WriteHeaderSize + len(r.Before) + len(r.After)
		}
		n += len(r.Ops)
	case TypeFormat:
		n += 2 + len(r.Ops)
	case TypeCheckpointEnd:
		n += len(r.After)
	case TypePageWritten:
		n += len(r.Written) * pageWriteSize
	}
	return n
}

// encode appends the wire form of r to dst and returns the result.  The
// record must have passed check.
func (r *Record) encode(dst []byte) []byte {
	start := len(dst)
	var hdr [recordHeaderSize]byte
	hdr[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(hdr[9:], uint64(r.TxID))
	binary.LittleEndian.PutUint64(hdr[17:], uint64(r.PageID))
	dst = append(dst, hdr[:]...)
	switch r.Type {
	case TypeUpdate, TypeCompensation:
		if r.single() {
			dst = page.AppendWrite(dst, int(r.Offset), r.Before, r.After)
		} else {
			dst = append(dst, r.Ops...)
		}
	case TypeFormat:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(r.PageType))
		dst = append(dst, r.Ops...)
	case TypeCheckpointEnd:
		dst = append(dst, r.After...)
	case TypePageWritten:
		for _, w := range r.Written {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(w.ID))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(w.LSN))
		}
	}
	rec := dst[start:]
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(rec)-4))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[8:], crcTable))
	return dst
}

// decodeRecord parses one record from buf.  It returns the record and the
// number of bytes consumed.  A zero length field signals the end of the
// log (zero-filled tail); ErrTruncated is returned in that case.  Anything
// that is not exactly one well-formed record — a bad checksum, an unknown
// type, operations that are malformed, leave the page or disagree with the
// record length — is ErrCorrupt.
func decodeRecord(buf []byte) (*Record, int, error) {
	if len(buf) < 8 {
		return nil, 0, ErrTruncated
	}
	length := binary.LittleEndian.Uint32(buf[0:])
	if length == 0 {
		return nil, 0, ErrTruncated
	}
	if uint64(length) > uint64(len(buf)-4) {
		return nil, 0, ErrTruncated
	}
	total := 4 + int(length)
	if total < recordHeaderSize {
		return nil, 0, fmt.Errorf("%w: short record", ErrCorrupt)
	}
	if crc32.Checksum(buf[8:total], crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	r := &Record{
		Type:   RecordType(buf[8]),
		TxID:   TxID(binary.LittleEndian.Uint64(buf[9:])),
		PageID: page.ID(binary.LittleEndian.Uint64(buf[17:])),
	}
	payload := buf[recordHeaderSize:total]
	switch r.Type {
	case TypeUpdate, TypeCompensation, TypeFormat:
		if r.Type == TypeFormat {
			if len(payload) < 2 {
				return nil, 0, fmt.Errorf("%w: format record payload of %d bytes", ErrCorrupt, len(payload))
			}
			r.PageType, payload = page.Type(binary.LittleEndian.Uint16(payload)), payload[2:]
		} else if len(payload) == 0 && r.Type == TypeUpdate {
			return nil, 0, fmt.Errorf("%w: update record without operations", ErrCorrupt)
		}
		if err := page.CheckOps(payload, r.Type == TypeUpdate); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if len(payload) > 0 {
			r.Ops = append([]byte(nil), payload...)
		}
	case TypeCheckpointEnd:
		if len(payload) != 8 {
			return nil, 0, fmt.Errorf("%w: checkpoint-end payload of %d bytes", ErrCorrupt, len(payload))
		}
		r.After = append([]byte(nil), payload...)
	case TypePageWritten:
		if len(payload) == 0 || len(payload)%pageWriteSize != 0 {
			return nil, 0, fmt.Errorf("%w: page-written payload of %d bytes", ErrCorrupt, len(payload))
		}
		r.Written = make([]PageWrite, len(payload)/pageWriteSize)
		for i := range r.Written {
			w := payload[i*pageWriteSize:]
			r.Written[i] = PageWrite{ID: page.ID(binary.LittleEndian.Uint64(w)), LSN: page.LSN(binary.LittleEndian.Uint64(w[8:]))}
		}
	case TypeCommit, TypeAbort, TypeCheckpointBegin:
		if len(payload) != 0 {
			return nil, 0, fmt.Errorf("%w: %s record with a payload", ErrCorrupt, r.Type)
		}
	default:
		return nil, 0, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, buf[8])
	}
	return r, total, nil
}

// EncodeLSN encodes an LSN as the payload of a checkpoint-end record.
func EncodeLSN(l page.LSN) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(l))
	return b[:]
}

// DecodeLSN decodes an LSN encoded with EncodeLSN.
func DecodeLSN(b []byte) (page.LSN, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("%w: short LSN payload", ErrCorrupt)
	}
	return page.LSN(binary.LittleEndian.Uint64(b)), nil
}
