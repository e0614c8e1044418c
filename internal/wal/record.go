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
	// TypeUpdate records what one Modify changed on one page as a list of
	// edits, each with the bytes needed to redo and to undo it.
	TypeUpdate RecordType = iota + 1
	// TypeCompensation records the rollback of one update record of the
	// same transaction: the inverse edits, with redo images only.  It is
	// never undone, and it tells restart that the transaction's newest
	// update not yet compensated needs no undo.
	TypeCompensation
	// TypeFormat records that a freshly allocated page was initialised as
	// an empty page of PageType.  Redo-only.
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

// Edit is one change to a page.  With Shift zero it is a write: the Len
// bytes at Off changed from Before to After.  Otherwise it is a shift: the
// Len bytes at Off moved by Shift bytes within their own region — towards
// higher offsets when Shift is positive — which is what inserting into or
// deleting from a sorted array does.  A shift by k pushes |k| bytes off one
// end of the region (Before) and leaves room for |k| new ones at the other
// (After), so it costs 2|k| image bytes however long the region is.
//
// The edits of one record cover disjoint regions in ascending order.
type Edit struct {
	Off   uint16
	Len   uint16
	Shift int8
	// Before is empty in compensation records, which are never undone.
	Before []byte
	After  []byte
}

// imageLen is the length of each of the edit's images.
func (e *Edit) imageLen() int {
	if e.Shift == 0 {
		return int(e.Len)
	}
	return max(int(e.Shift), -int(e.Shift))
}

// Apply redoes the edit on buf, which must be in the state the edit was
// recorded against.  The record codec guarantees the region lies inside the
// page and the images have the right length.
func (e *Edit) Apply(buf page.Buf) {
	region := buf[e.Off : int(e.Off)+int(e.Len)]
	k := e.imageLen()
	switch {
	case e.Shift == 0:
		copy(region, e.After)
	case e.Shift > 0:
		copy(region[k:], region[:len(region)-k])
		copy(region, e.After)
	default:
		copy(region, region[k:])
		copy(region[len(region)-k:], e.After)
	}
}

// Invert turns every edit into the one that undoes it, in place: images
// swap and shifts reverse.  The regions are disjoint, so the order of the
// list needs no change.
func Invert(edits []Edit) {
	for i := range edits {
		e := &edits[i]
		e.Shift = -e.Shift
		e.Before, e.After = e.After, e.Before
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
	// Edits is the edit list of update and compensation records.
	Edits []Edit
	// PageType is the type a format record initialises the page as.
	PageType page.Type
	// Written lists the pages of a page-written record.
	Written []PageWrite
	// Offset, Before and After describe an update record of a single
	// write when Edits is nil, which is how tests and micro-benchmarks
	// build one by hand; decoding always fills Edits instead.  After also
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
	// decoded again (edits out of the page, out of order, or with images
	// of the wrong length).
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
//	update, compensation:  u16 edit count, then per edit
//	                         u16 offset, u16 length, i8 shift,
//	                         before image (update records only), after image
//	                       where an image is `length` bytes for a write
//	                       (shift 0) and |shift| bytes for a shift
//	format:                u16 page type
//	checkpoint-end:        u64 LSN of the checkpoint-begin record
//	page-written:          per page, u64 page id and u64 pageLSN
//	commit, abort, checkpoint-begin: nothing
const (
	// recordHeaderSize is also the size of the smallest record (a commit);
	// the pipeline sizes its publication ring by it.
	recordHeaderSize = 4 + 4 + 1 + 8 + 8
	// EditHeaderSize is the log cost of one more edit in a record, before
	// its images; the engine's differ uses it to decide when two nearby
	// changes are cheaper logged as one.
	EditHeaderSize = 2 + 2 + 1
)

// single returns the edit list of an update record built with Offset,
// Before and After, and whether r is one.  It returns an array so that the
// images stay where the caller put them — on its stack, in the benchmarks.
func (r *Record) single() ([1]Edit, bool) {
	if r.Edits != nil || r.Type != TypeUpdate {
		return [1]Edit{}, false
	}
	return [1]Edit{{Off: r.Offset, Len: uint16(len(r.After)), Before: r.Before, After: r.After}}, true
}

// check reports whether decodeRecord would accept the record once encoded.
func (r *Record) check() error {
	if r.Type == TypePageWritten && len(r.Written) == 0 {
		return fmt.Errorf("%w: page-written record without pages", ErrInvalid)
	}
	if r.Type != TypeUpdate && r.Type != TypeCompensation {
		return nil
	}
	edits := r.Edits
	if one, ok := r.single(); ok {
		edits = one[:]
	}
	if len(edits) == 0 || len(edits) > 0xFFFF {
		return fmt.Errorf("%w: %d edits", ErrInvalid, len(edits))
	}
	end := 0
	for i := range edits {
		e := &edits[i]
		if err := e.checkGeometry(end); err != nil {
			return fmt.Errorf("%w: edit %d: %v", ErrInvalid, i, err)
		}
		n := e.imageLen()
		if len(e.After) != n || (r.Type == TypeUpdate && len(e.Before) != n) {
			return fmt.Errorf("%w: edit %d: images of %d and %d bytes, want %d", ErrInvalid, i, len(e.Before), len(e.After), n)
		}
		end = int(e.Off) + int(e.Len)
	}
	return nil
}

// checkGeometry validates the edit's region: non-empty, inside the page,
// at or after minOff (the end of the previous edit), and no shorter than
// the shift distance.
func (e *Edit) checkGeometry(minOff int) error {
	switch {
	case e.Len == 0:
		return errors.New("empty region")
	case int(e.Off) < minOff:
		return fmt.Errorf("region at %d overlaps or precedes the previous one (ends at %d)", e.Off, minOff)
	case int(e.Off)+int(e.Len) > page.Size:
		return fmt.Errorf("region [%d,%d) leaves the page", e.Off, int(e.Off)+int(e.Len))
	case e.Shift == -128 || e.imageLen() > int(e.Len):
		return fmt.Errorf("shift by %d in a region of %d bytes", e.Shift, e.Len)
	}
	return nil
}

// encodedSize returns the full on-log size of the record in bytes.
func (r *Record) encodedSize() int {
	n := recordHeaderSize
	switch r.Type {
	case TypeUpdate, TypeCompensation:
		edits := r.Edits
		if one, ok := r.single(); ok {
			edits = one[:]
		}
		n += 2
		for _, e := range edits {
			n += EditHeaderSize + len(e.After)
			if r.Type == TypeUpdate {
				n += len(e.Before)
			}
		}
	case TypeFormat:
		n += 2
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
		edits := r.Edits
		if one, ok := r.single(); ok {
			edits = one[:]
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(edits)))
		for i := range edits {
			e := &edits[i]
			dst = binary.LittleEndian.AppendUint16(dst, e.Off)
			dst = binary.LittleEndian.AppendUint16(dst, e.Len)
			dst = append(dst, byte(e.Shift))
			if r.Type == TypeUpdate {
				dst = append(dst, e.Before...)
			}
			dst = append(dst, e.After...)
		}
	case TypeFormat:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(r.PageType))
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
// type, edits that overlap, leave the page or disagree with the record
// length — is ErrCorrupt.
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
	case TypeUpdate, TypeCompensation:
		if err := r.decodeEdits(payload); err != nil {
			return nil, 0, err
		}
	case TypeFormat:
		if len(payload) != 2 {
			return nil, 0, fmt.Errorf("%w: format record payload of %d bytes", ErrCorrupt, len(payload))
		}
		r.PageType = page.Type(binary.LittleEndian.Uint16(payload))
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

// decodeEdits parses the edit list of an update or compensation record.
// The images are copied out of payload into one allocation.
func (r *Record) decodeEdits(payload []byte) error {
	if len(payload) < 2 {
		return fmt.Errorf("%w: no edit count", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint16(payload))
	rest := payload[2:]
	if count == 0 || count*(EditHeaderSize+1) > len(rest) {
		return fmt.Errorf("%w: %d edits in %d bytes", ErrCorrupt, count, len(rest))
	}
	images := make([]byte, 0, len(rest)-count*EditHeaderSize)
	r.Edits = make([]Edit, count)
	end := 0
	for i := range r.Edits {
		e := &r.Edits[i]
		if len(rest) < EditHeaderSize {
			return fmt.Errorf("%w: edit %d cut short", ErrCorrupt, i)
		}
		e.Off = binary.LittleEndian.Uint16(rest[0:])
		e.Len = binary.LittleEndian.Uint16(rest[2:])
		e.Shift = int8(rest[4])
		rest = rest[EditHeaderSize:]
		if err := e.checkGeometry(end); err != nil {
			return fmt.Errorf("%w: edit %d: %v", ErrCorrupt, i, err)
		}
		end = int(e.Off) + int(e.Len)
		n := e.imageLen()
		need := n
		if r.Type == TypeUpdate {
			need = 2 * n
		}
		if len(rest) < need {
			return fmt.Errorf("%w: edit %d images cut short", ErrCorrupt, i)
		}
		images = append(images, rest[:need]...)
		img := images[len(images)-need:]
		if r.Type == TypeUpdate {
			e.Before, img = img[:n:n], img[n:]
		}
		e.After = img[:n:n]
		rest = rest[need:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes after the last edit", ErrCorrupt, len(rest))
	}
	return nil
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
