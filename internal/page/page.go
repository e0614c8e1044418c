// Package page defines the 4 KiB database page format shared by every
// layer of the system: the DRAM buffer pool, the flash cache, the disk
// store, the write-ahead log and the recovery manager.
//
// Layout (little endian):
//
//	offset  size  field
//	0       8     page id
//	8       8     page LSN (log sequence number of the last update)
//	16      4     checksum (CRC-32C of bytes [HeaderSize, Size))
//	20      2     page type
//	22      2     slot count (slotted pages only)
//	24      2     free-space lower bound (end of slot array)
//	26      2     free-space upper bound (start of cell area)
//	28      4     reserved
//	32      ...   payload / slotted area
//
// The header mirrors what the paper relies on for recovery: every page
// carries its own identity and pageLSN so the flash-cache metadata
// directory can be rebuilt by scanning page headers (Section 4.2).
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Size is the page size in bytes (4 KiB, as in the paper's PostgreSQL
// configuration).
const Size = 4096

// HeaderSize is the number of bytes reserved for the page header.
const HeaderSize = 32

// PayloadSize is the number of usable bytes after the header.
const PayloadSize = Size - HeaderSize

// ID identifies a page within the database.  Page IDs are block numbers on
// the data device.
type ID uint64

// InvalidID is the zero value of ID and never refers to a real data page;
// page 0 of the data device is reserved for the database superblock.
const InvalidID ID = 0

// LSN is a log sequence number: the byte offset of a record in the
// write-ahead log.
type LSN uint64

// Type classifies the content of a page.
type Type uint16

// Page types.
const (
	TypeFree Type = iota
	TypeSuperblock
	TypeHeap
	TypeBTreeLeaf
	TypeBTreeInternal
	TypeMeta
	TypeKVCatalog
	TypeRecordLeaf
)

// String returns a readable page type name.
func (t Type) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeSuperblock:
		return "superblock"
	case TypeHeap:
		return "heap"
	case TypeBTreeLeaf:
		return "btree-leaf"
	case TypeBTreeInternal:
		return "btree-internal"
	case TypeMeta:
		return "meta"
	case TypeKVCatalog:
		return "kv-catalog"
	case TypeRecordLeaf:
		return "record-leaf"
	default:
		return fmt.Sprintf("type(%d)", uint16(t))
	}
}

// Header field offsets.
const (
	offID       = 0
	offLSN      = 8
	offChecksum = 16
	offType     = 20
	offSlots    = 22
	offLower    = 24
	offUpper    = 26
	offStamp    = 28
)

// Errors returned by page operations.
var (
	ErrBadSize     = errors.New("page: buffer is not a full page")
	ErrChecksum    = errors.New("page: checksum mismatch")
	ErrPageFull    = errors.New("page: not enough free space")
	ErrBadSlot     = errors.New("page: slot out of range")
	ErrSlotDeleted = errors.New("page: slot is deleted")
	ErrTooLarge    = errors.New("page: record larger than page payload")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Buf is a raw page image.  All accessors operate in place on the caller's
// buffer, which must be exactly Size bytes long.
//
// Who owns a page image.  Every image has exactly one owner at a time — a
// buffer-pool frame, the flash cache's writer path, a caller's local — and
// an image passed across a layer boundary is passed in one of three ways,
// which the boundary's documentation names:
//
//   - lent: the callee may read it until it returns and must neither keep
//     nor write it (buffer.Victim.Data in an eviction or flush callback,
//     the data of Extension.StageIn and DiskWriteFunc);
//   - handed over: ownership moves to the receiver, who alone decides when
//     the image is finished with (buffer.Victim.Data from EvictBatch,
//     face.PulledPage.Data);
//   - copied: the receiver gets the bytes, not the image (Lookup, fetch).
//
// An image goes back to a FreeList only from the goroutine that owns it
// exclusively, and only after the last device write or copy out of it has
// returned; from then on nobody may read or write it.  The LC baseline's
// and recovery's scratch images are never recycled: they fall to the
// collector.
type Buf []byte

// NewBuf allocates a zeroed page image.
func NewBuf() Buf { return make(Buf, Size) }

// Valid reports whether the buffer has the right length.
func (b Buf) Valid() bool { return len(b) == Size }

// ID returns the page id stored in the header.
func (b Buf) ID() ID { return ID(binary.LittleEndian.Uint64(b[offID:])) }

// SetID stores the page id in the header.
func (b Buf) SetID(id ID) { binary.LittleEndian.PutUint64(b[offID:], uint64(id)) }

// LSN returns the page LSN stored in the header.
func (b Buf) LSN() LSN { return LSN(binary.LittleEndian.Uint64(b[offLSN:])) }

// SetLSN stores the page LSN in the header.
func (b Buf) SetLSN(l LSN) { binary.LittleEndian.PutUint64(b[offLSN:], uint64(l)) }

// Type returns the page type.
func (b Buf) Type() Type { return Type(binary.LittleEndian.Uint16(b[offType:])) }

// SetType stores the page type.
func (b Buf) SetType(t Type) { binary.LittleEndian.PutUint16(b[offType:], uint16(t)) }

// CacheStamp returns the flash-cache enqueue stamp stored in the reserved
// header field.  The flash cache stamps every frame it writes with the low
// 32 bits of its global enqueue sequence number so that, after a crash,
// frames belonging to the current queue generation can be told apart from
// stale frames of earlier generations (Section 4.2 of the paper).  The
// stamp is not covered by the page checksum.
func (b Buf) CacheStamp() uint32 { return binary.LittleEndian.Uint32(b[offStamp:]) }

// SetCacheStamp stores the flash-cache enqueue stamp.
func (b Buf) SetCacheStamp(s uint32) { binary.LittleEndian.PutUint32(b[offStamp:], s) }

// Checksum returns the stored checksum.
func (b Buf) Checksum() uint32 { return binary.LittleEndian.Uint32(b[offChecksum:]) }

// UpdateChecksum recomputes and stores the checksum over the page body.
func (b Buf) UpdateChecksum() {
	binary.LittleEndian.PutUint32(b[offChecksum:], b.computeChecksum())
}

// VerifyChecksum reports whether the stored checksum matches the body.
// A page of all zeroes (never written) verifies successfully.
func (b Buf) VerifyChecksum() error {
	if !b.Valid() {
		return ErrBadSize
	}
	if b.Checksum() != b.computeChecksum() && !b.isZero() {
		return fmt.Errorf("%w: page %d", ErrChecksum, b.ID())
	}
	return nil
}

func (b Buf) computeChecksum() uint32 {
	return crc32.Checksum(b[HeaderSize:], castagnoli)
}

func (b Buf) isZero() bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Init formats the buffer as an empty page of the given type with the
// given id.  Slotted bookkeeping is initialised so heap and B-tree layers
// can use the page immediately.
func (b Buf) Init(id ID, t Type) {
	for i := range b {
		b[i] = 0
	}
	b.SetID(id)
	b.SetType(t)
	b.setSlotCount(0)
	b.setLower(HeaderSize)
	b.setUpper(Size)
}

// Payload returns the page body after the header.  Callers that use the
// slotted-page API must not write to the payload directly.
func (b Buf) Payload() []byte { return b[HeaderSize:] }

// Clone returns a deep copy of the page image.
func (b Buf) Clone() Buf {
	cp := NewBuf()
	copy(cp, b)
	return cp
}

// --- Slotted page layout -------------------------------------------------
//
// The slot array grows downward from HeaderSize; cells grow upward from the
// end of the page.  Each slot is 4 bytes: 2-byte cell offset, 2-byte cell
// length.  Offset 0 marks a deleted slot.
//
// A heap page appends slots and deletes them in place.  A page whose slots
// are kept in an order of its owner's (a B-tree record leaf) opens and
// closes them with Writer.InsertAt and Writer.RemoveAt instead, so it has
// no deleted slots; its cells may end before the page does, leaving the
// bytes after them to the owner, and the space of removed cells comes back
// with Writer.Compact.

// SlotSize is the size of one slot.
const SlotSize = 4

// SlotCount returns the number of slots (including deleted ones).
func (b Buf) SlotCount() int { return int(binary.LittleEndian.Uint16(b[offSlots:])) }

func (b Buf) setSlotCount(n int) { binary.LittleEndian.PutUint16(b[offSlots:], uint16(n)) }

func (b Buf) lower() int { return int(binary.LittleEndian.Uint16(b[offLower:])) }

func (b Buf) setLower(v int) { binary.LittleEndian.PutUint16(b[offLower:], uint16(v)) }

func (b Buf) upper() int { return int(binary.LittleEndian.Uint16(b[offUpper:])) }

func (b Buf) setUpper(v int) { binary.LittleEndian.PutUint16(b[offUpper:], uint16(v)) }

func (b Buf) slotOffsets(slot int) (cellOff, cellLen int) {
	base := HeaderSize + slot*SlotSize
	return int(binary.LittleEndian.Uint16(b[base:])), int(binary.LittleEndian.Uint16(b[base+2:]))
}

func (b Buf) setSlot(slot, cellOff, cellLen int) {
	base := HeaderSize + slot*SlotSize
	binary.LittleEndian.PutUint16(b[base:], uint16(cellOff))
	binary.LittleEndian.PutUint16(b[base+2:], uint16(cellLen))
}

// FreeSpace returns the number of bytes available for one new record
// (including its slot).
func (b Buf) FreeSpace() int {
	free := b.upper() - b.lower() - SlotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert adds a record to the page and returns its slot number.
// It returns ErrPageFull when the record does not fit.
func (b Buf) Insert(rec []byte) (int, error) {
	if err := b.fits(len(rec)); err != nil {
		return 0, err
	}
	slot := b.SlotCount()
	newUpper := b.upper() - len(rec)
	copy(b[newUpper:], rec)
	b.setUpper(newUpper)
	b.setSlot(slot, newUpper, len(rec))
	b.setSlotCount(slot + 1)
	b.setLower(b.lower() + SlotSize)
	return slot, nil
}

// fits reports why a record of n bytes cannot be inserted, or nil if it can.
func (b Buf) fits(n int) error {
	if n > PayloadSize-SlotSize {
		return ErrTooLarge
	}
	if n+SlotSize > b.upper()-b.lower() {
		return ErrPageFull
	}
	return nil
}

// Record returns the record stored in the given slot.  The returned slice
// aliases the page buffer and its capacity ends with the record, so an
// append to it reallocates instead of running over the neighbouring cells.
func (b Buf) Record(slot int) ([]byte, error) {
	off, length, err := b.cell(slot)
	if err != nil {
		return nil, err
	}
	return b[off : off+length : off+length], nil
}

// Cell returns the cell of slot i of a page without deleted slots, as
// Record does without its checks.
func (b Buf) Cell(i int) []byte {
	off, length := b.slotOffsets(i)
	return b[off : off+length : off+length]
}

// CellBytes returns the bytes the cells of a page without deleted slots
// take.
func (b Buf) CellBytes() int {
	n := 0
	for i := range b.SlotCount() {
		_, length := b.slotOffsets(i)
		n += length
	}
	return n
}

// cell returns the offset and length of the record in the given slot.
func (b Buf) cell(slot int) (off, length int, err error) {
	if slot < 0 || slot >= b.SlotCount() {
		return 0, 0, fmt.Errorf("%w: slot %d of %d on page %d", ErrBadSlot, slot, b.SlotCount(), b.ID())
	}
	off, length = b.slotOffsets(slot)
	if off == 0 {
		return 0, 0, fmt.Errorf("%w: slot %d on page %d", ErrSlotDeleted, slot, b.ID())
	}
	return off, length, nil
}

// Update replaces the record in the given slot.  The new record must not be
// larger than the old one (fixed-size records in this system always
// satisfy this; variable-size updates go through delete+insert).
func (b Buf) Update(slot int, rec []byte) error {
	old, err := b.Record(slot)
	if err != nil {
		return err
	}
	if len(rec) > len(old) {
		return fmt.Errorf("%w: update of slot %d grows record from %d to %d bytes",
			ErrPageFull, slot, len(old), len(rec))
	}
	copy(old, rec)
	if len(rec) < len(old) {
		off, _ := b.slotOffsets(slot)
		b.setSlot(slot, off, len(rec))
	}
	return nil
}

// Delete marks the slot as deleted.  The cell space is not reclaimed; this
// matches the lazy-delete behaviour the TPC-C Delivery transaction needs.
func (b Buf) Delete(slot int) error {
	if slot < 0 || slot >= b.SlotCount() {
		return fmt.Errorf("%w: slot %d of %d on page %d", ErrBadSlot, slot, b.SlotCount(), b.ID())
	}
	b.setSlot(slot, 0, 0)
	return nil
}

// Deleted reports whether the slot has been deleted.
func (b Buf) Deleted(slot int) (bool, error) {
	if slot < 0 || slot >= b.SlotCount() {
		return false, fmt.Errorf("%w: slot %d of %d on page %d", ErrBadSlot, slot, b.SlotCount(), b.ID())
	}
	off, _ := b.slotOffsets(slot)
	return off == 0, nil
}

// RID is a record identifier: a (page, slot) pair.
type RID struct {
	Page ID
	Slot uint16
}

// String formats the RID.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// IsZero reports whether the RID is the zero value.
func (r RID) IsZero() bool { return r.Page == InvalidID && r.Slot == 0 }

// EncodeRID packs a RID into 10 bytes.
func EncodeRID(r RID) [10]byte {
	var out [10]byte
	binary.LittleEndian.PutUint64(out[0:], uint64(r.Page))
	binary.LittleEndian.PutUint16(out[8:], r.Slot)
	return out
}

// DecodeRID unpacks a RID encoded with EncodeRID.
func DecodeRID(b []byte) RID {
	return RID{
		Page: ID(binary.LittleEndian.Uint64(b[0:])),
		Slot: binary.LittleEndian.Uint16(b[8:]),
	}
}
