package page

import (
	"encoding/binary"
	"slices"
)

// Writer is an editing view of one page: the engine hands one to the
// callback of a transaction's Edit.  Every method that writes first declares
// the bytes it is about to write, and the Writer saves their old contents,
// once, into a before image at the same offsets.  The declared ranges are
// kept as a few windows — ranges closer together than WindowGap share one,
// with the untouched bytes between them saved too — so that the bytes
// of the page outside the windows are known to be unchanged, and whoever
// logs the edit compares the windows only, and restores only them when the
// edit fails.
//
// Read the page through Page.  A write that no method declared — through
// Page, or through a slice that Record or Bytes returned after the callback
// has ended — is not seen: it is a bug, which the race build's check of
// every Edit against the whole page reports.
type Writer struct {
	buf, before Buf
	wins        [maxWindows]Window
	n           int
	// The last Move, and how many there were (counting stops at two).
	dst, src, moved int
	moves           int
}

// WindowGap is how close two ranges a Writer saves must lie to share a
// window: the windows lie more than WindowGap bytes apart.
const WindowGap = 128

// maxWindows is the most windows that fit on a page: k windows more than
// WindowGap bytes apart take at least k + (k-1)*(WindowGap+1) bytes, so 32
// of them fit in a page and 33 do not.  A range that finds no window within
// the gap therefore always has room for one of its own.
const maxWindows = (Size + WindowGap + 1) / (WindowGap + 2)

// Window is a byte range [Lo, Hi) of a page.
type Window struct{ Lo, Hi int }

// NewWriter returns a Writer.  It owns a before image of its own, which
// every edit reuses.
func NewWriter() *Writer { return &Writer{before: NewBuf()} }

// Reset starts an edit of buf.
func (w *Writer) Reset(buf Buf) {
	w.buf = buf
	w.n, w.moves = 0, 0
}

// Page returns the page for reading.
func (w *Writer) Page() Buf { return w.buf }

// Before returns the before image: the page as it was when the edit began,
// at the offsets of the windows and nowhere else.
func (w *Writer) Before() Buf { return w.before }

// Windows returns the windows, in ascending order.  Every byte the edit
// wrote lies in one of them.
func (w *Writer) Windows() []Window { return w.wins[:w.n] }

// Moved reports the move the edit made with Move, if it made exactly one.
func (w *Writer) Moved() (dst, src, n int, ok bool) {
	return w.dst, w.src, w.moved, w.moves == 1
}

// Restore writes the saved bytes back, undoing everything the edit wrote.
func (w *Writer) Restore() {
	for _, win := range w.Windows() {
		copy(w.buf[win.Lo:win.Hi], w.before[win.Lo:win.Hi])
	}
}

// touch declares that [lo, hi) is about to be written: the bytes no window
// holds yet are saved, and the range joins the windows within the gap of
// it, or becomes a window of its own.
func (w *Writer) touch(lo, hi int) {
	if lo >= hi {
		return
	}
	// Windows i to j-1 lie within the gap of [lo, hi).
	i := 0
	for i < w.n && w.wins[i].Hi+WindowGap < lo {
		i++
	}
	j := i
	for j < w.n && w.wins[j].Lo <= hi+WindowGap {
		j++
	}
	if i == j {
		copy(w.before[lo:hi], w.buf[lo:hi])
		copy(w.wins[i+1:w.n+1], w.wins[i:w.n])
		w.wins[i] = Window{lo, hi}
		w.n++
		return
	}
	lo, hi = min(lo, w.wins[i].Lo), max(hi, w.wins[j-1].Hi)
	at := lo
	for _, win := range w.wins[i:j] {
		copy(w.before[at:win.Lo], w.buf[at:win.Lo])
		at = win.Hi
	}
	copy(w.before[at:hi], w.buf[at:hi])
	w.wins[i] = Window{lo, hi}
	copy(w.wins[i+1:], w.wins[j:w.n])
	w.n -= j - i - 1
}

// touchSlot declares the slot array entry of the given slot.
func (w *Writer) touchSlot(slot int) {
	base := HeaderSize + slot*SlotSize
	w.touch(base, base+SlotSize)
}

// SetType stores the page type.
func (w *Writer) SetType(t Type) {
	w.touch(offType, offType+2)
	w.buf.SetType(t)
}

// Insert adds a record to the slotted page, as Buf.Insert does.
func (w *Writer) Insert(rec []byte) (int, error) {
	b := w.buf
	if err := b.fits(len(rec)); err != nil {
		return 0, err
	}
	w.touch(offSlots, offStamp) // slot count, lower and upper bounds
	w.touchSlot(b.SlotCount())
	w.touch(b.upper()-len(rec), b.upper())
	return b.Insert(rec)
}

// Delete marks the slot as deleted, as Buf.Delete does.
func (w *Writer) Delete(slot int) error {
	if slot >= 0 && slot < w.buf.SlotCount() {
		w.touchSlot(slot)
	}
	return w.buf.Delete(slot)
}

// ClearSlots empties the slotted page and ends its cell area at page
// offset end: the bytes from end on are the caller's.
func (w *Writer) ClearSlots(end int) {
	w.touch(offSlots, offStamp)
	w.buf.setSlotCount(0)
	w.buf.setLower(HeaderSize)
	w.buf.setUpper(end)
}

// InsertAt opens slot i of a page whose slots are kept in order, moving the
// slots from i on up by one, for a cell of n bytes, and returns the cell for
// writing.  It returns ErrPageFull when the free space between the slots
// and the cells is too small; Compact may make room.
func (w *Writer) InsertAt(i, n int) ([]byte, error) {
	b := w.buf
	if err := b.fits(n); err != nil {
		return nil, err
	}
	count := b.SlotCount()
	w.Move(HeaderSize+(i+1)*SlotSize, HeaderSize+i*SlotSize, (count-i)*SlotSize)
	w.touch(offSlots, offStamp)
	w.touchSlot(i)
	upper := b.upper() - n
	w.touch(upper, upper+n)
	b.setUpper(upper)
	b.setSlot(i, upper, n)
	b.setSlotCount(count + 1)
	b.setLower(b.lower() + SlotSize)
	return b[upper : upper+n : upper+n], nil
}

// RemoveAt closes slot i of a page whose slots are kept in order, moving
// the slots above it down by one.  The cell's bytes stay where they are
// until Compact, unless it is the lowest cell, whose space is free at once.
func (w *Writer) RemoveAt(i int) {
	b := w.buf
	count := b.SlotCount()
	off, length := b.slotOffsets(i)
	w.Move(HeaderSize+i*SlotSize, HeaderSize+(i+1)*SlotSize, (count-i-1)*SlotSize)
	w.touch(offSlots, offStamp)
	if off == b.upper() {
		b.setUpper(off + length)
	}
	b.setSlotCount(count - 1)
	b.setLower(b.lower() - SlotSize)
}

// Compact moves the cells of a page without deleted slots together against
// page offset end, keeping their order on the page, so that all its free
// space lies between the slots and the cells.
func (w *Writer) Compact(end int) {
	b := w.buf
	count := b.SlotCount()
	type cell struct{ slot, off, n int }
	cells := make([]cell, count)
	for i := range cells {
		off, n := b.slotOffsets(i)
		cells[i] = cell{i, off, n}
	}
	slices.SortFunc(cells, func(x, y cell) int { return y.off - x.off })
	w.touch(HeaderSize, HeaderSize+count*SlotSize)
	w.touch(b.upper(), end)
	at := end
	for _, c := range cells {
		at -= c.n
		if at != c.off {
			copy(b[at:at+c.n], b[c.off:c.off+c.n])
			b.setSlot(c.slot, at, c.n)
		}
	}
	w.touch(offSlots, offStamp)
	b.setUpper(at)
}

// Record returns the record in the given slot for writing.  The slice's
// capacity ends with the record.
func (w *Writer) Record(slot int) ([]byte, error) {
	off, length, err := w.buf.cell(slot)
	if err != nil {
		return nil, err
	}
	return w.Bytes(off, length), nil
}

// Bytes returns the n bytes at page offset off for writing.  The slice's
// capacity ends with them.
func (w *Writer) Bytes(off, n int) []byte {
	w.touch(off, off+n)
	return w.buf[off : off+n : off+n]
}

// PutUint16 stores v, little endian, at page offset off.
func (w *Writer) PutUint16(off int, v uint16) {
	binary.LittleEndian.PutUint16(w.Bytes(off, 2), v)
}

// PutUint64 stores v, little endian, at page offset off.
func (w *Writer) PutUint64(off int, v uint64) {
	binary.LittleEndian.PutUint64(w.Bytes(off, 8), v)
}

// Move copies the n bytes at page offset src to offset dst, as
// copy(buf[dst:dst+n], buf[src:src+n]) does: it opens or closes a gap in a
// sorted array.  If it is the edit's only move, whoever logs the edit may
// log it as one shift — the bytes pushed off one end and the new ones at the
// other — without looking for it (see Moved).
func (w *Writer) Move(dst, src, n int) {
	w.touch(min(dst, src), max(dst, src)+n)
	copy(w.buf[dst:dst+n], w.buf[src:src+n])
	w.dst, w.src, w.moved = dst, src, n
	w.moves = min(w.moves+1, 2)
}
