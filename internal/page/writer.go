package page

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Writer is an editing view of one page: the engine hands one to the
// callback of a transaction's Edit and to the fill of its AllocEdit.  Each
// method makes its change and records it as an operation, and the engine
// logs the list of them (Ops) for the edit: physical to the page, logical
// within it, as ARIES's physiological logging is.  Redo runs the same
// operations on the same page again, so it rebuilds the page byte for
// byte; Undo runs their inverses through a Writer.
//
// A slice that Bytes, Record or InsertAt returns is the callback's to write
// until it calls the Writer again: its bytes are logged then, or when the
// callback returns.  A write through Page, or through such a slice later,
// is not logged: it is a bug, which the race build's replay of every edit
// reports.
type Writer struct {
	buf Buf
	// undo says whether the operations carry what undoing them takes:
	// they do in an update record, not in a compensation record, which is
	// never undone.
	undo bool
	ops  []byte
	// [lo, hi) is the open write, which the callback may still be
	// writing; before holds its old bytes at their own offsets.
	lo, hi int
	before Buf
	// free is the free space the page had before the edit's transaction
	// first changed it: as the edit began, unless earlier, asked once,
	// knows an earlier edit of the transaction that changed it.  [glo, ghi) is
	// where writes are fills: the part of the new cell of the last
	// InsertAt that lies in the free space the page had before the
	// transaction, or the bytes of the last Move's source that its
	// destination did not cover.
	free     Span
	earlier  func(ID) (Span, bool)
	asked    bool
	glo, ghi int
	// freed holds, for each new cell, the bytes of free space it and its
	// slot took, which only Restore puts back.
	freed []byte
	// sparse is where in ops the run count of the open sparse write lies,
	// 0 if none is open, and send where its last run ends.
	sparse, send int
	// orig is the page as the edit began, kept by the race build only.
	orig Buf
}

// Operation kinds.  An operation is its kind byte and then, little endian,
// the fields below; those in brackets are undo information, which only
// update records carry.
//
//	opWrite   u16 off, u16 n, [n bytes before], n bytes after
//	opFill    u16 off, u16 n, n bytes after: a write into the new cell of
//	          the last insert, or into the gap the last move left
//	opMove    u16 dst, u16 src, u16 n, [the min(|dst-src|, n) bytes the
//	          move overwrote outside its source]
//	opInsert  u16 slot, u16 n: InsertAt, whose cell the fills after it write
//	opRemove  u16 slot, [u16 off, u16 n]: RemoveAt of the cell [off, off+n)
//	opSparse  u16 off, u16 runs, then runs times u8 skip, u8 n, n bytes
//	          after: writes from off on, each skip bytes past the end of
//	          the one before; in records without undo information only
//
// A new cell needs no before image where it takes space that was free when
// its transaction first changed the page, because its undo is its removal
// and no byte there is one the page used before the transaction: undo
// leaves the cell's bytes in the free space.  Nor does the gap a move
// leaves, which undoing the move overwrites.  So a write into either,
// until the next operation that is not a write, is a fill, and only the
// bytes of it that differ from what the free space or the gap held are
// logged, once.  Every other byte the transaction overwrites is logged
// with its before image, so a removed cell needs none: its bytes stay
// where they were until something that logs them overwrites them.
//
// A record without undo information logs its writes as sparse writes, two
// bytes a run where a write costs five: a new page's are short runs.
const (
	opWrite byte = iota + 1
	opFill
	opMove
	opInsert
	opRemove
	opSparse
)

// WriteHeaderSize is the log cost of one write, before its images.
const WriteHeaderSize = 1 + 2 + 2

// maxWriteGap is the longest run of unchanged bytes a logged write spans:
// a longer one costs more as before and after images than the header of
// another write does.
const maxWriteGap = 2

// NewWriter returns a Writer.  It owns a page-sized buffer for before
// images, which every edit reuses.  earlier, if not nil, reports the free
// space (Buf.Free) a page had before the transaction of the Writer's edits
// first changed it, if it changed it before the current edit: new cells
// are fills only there.
func NewWriter(earlier func(ID) (Span, bool)) *Writer {
	return &Writer{before: NewBuf(), earlier: earlier}
}

// Span is a byte range [Lo, Hi) of a page.
type Span struct{ Lo, Hi int }

// Reset starts an edit of buf whose operations are logged with their undo
// information.
func (w *Writer) Reset(buf Buf) { w.reset(buf, true) }

// ResetRedoOnly starts an edit of buf whose operations are logged without
// undo information, for a record that is never undone: a new page's
// contents.  Restore cannot undo such an edit.
func (w *Writer) ResetRedoOnly(buf Buf) { w.reset(buf, false) }

func (w *Writer) reset(buf Buf, undo bool) {
	w.buf, w.undo, w.ops, w.freed, w.sparse = buf, undo, w.ops[:0], w.freed[:0], 0
	w.lo, w.hi, w.glo, w.ghi, w.free, w.asked = 0, 0, 0, 0, buf.Free(), false
	if checkReplay {
		w.orig = append(w.orig[:0], buf...)
	}
}

// Page returns the page for reading.
func (w *Writer) Page() Buf { return w.buf }

// Ops returns the operations of the edit so far, encoded as a log record
// carries them; empty if the edit changed nothing.  The slice is valid
// until the Writer's next Reset or Undo.
func (w *Writer) Ops() []byte {
	w.settle()
	if checkReplay {
		got := Buf(bytes.Clone(w.orig))
		Redo(got, w.ops, w.undo)
		if !bytes.Equal(got, w.buf) {
			panic(fmt.Sprintf("page: %d bytes of operations do not replay into page %d as it was edited", len(w.ops), w.buf.ID()))
		}
	}
	return w.ops
}

// Restore undoes everything the edit, begun with Reset, wrote, exactly: the
// operations are undone newest first, and new cells give back the free
// space they took.
func (w *Writer) Restore() {
	w.undoOps(w.buf, bytes.Clone(w.Ops()), bytes.Clone(w.freed))
}

// Undo runs the inverses of the operations of an update record, newest
// first, on buf, which they left as it is, and returns them as the
// operations of its compensation record, valid until the Writer's next
// Reset or Undo.  Every byte the page uses comes back as it was before the
// record; a cell the record added leaves its bytes in the free space.
func (w *Writer) Undo(buf Buf, ops []byte) []byte {
	w.undoOps(buf, ops, nil)
	return w.Ops()
}

func (w *Writer) undoOps(buf Buf, ops, freed []byte) {
	w.reset(buf, false)
	var stack [64]op
	list := stack[:0]
	for rest := ops; len(rest) > 0; {
		var o op
		o, rest, _ = nextOp(rest, true)
		list = append(list, o)
	}
	for _, o := range slices.Backward(list) {
		switch o.kind {
		case opWrite:
			copy(w.Bytes(o.a, o.b), o.before)
		case opMove:
			w.Move(o.b, o.a, o.c)
			lo, _ := lost(o.a, o.b, o.c)
			copy(w.Bytes(lo, len(o.before)), o.before)
		case opInsert:
			off, _ := buf.slotOffsets(o.a)
			w.RemoveAt(o.a)
			if freed != nil {
				f := freed[len(freed)-SlotSize-o.b:]
				copy(buf[slotOff(buf.SlotCount()):], f[:SlotSize])
				copy(buf[off:], f[SlotSize:])
				freed = freed[:len(freed)-len(f)]
			}
		case opRemove:
			// The slot opens again for the cell, where it was.
			count, off := buf.SlotCount(), o.b
			w.Move(slotOff(o.a+1), slotOff(o.a), (count-o.a)*SlotSize)
			w.PutUint16(slotOff(o.a), uint16(off))
			w.PutUint16(slotOff(o.a)+2, uint16(o.c))
			w.PutUint16(offSlots, uint16(count+1))
			w.PutUint16(offLower, uint16(buf.lower()+SlotSize))
			w.PutUint16(offUpper, uint16(min(buf.upper(), off)))
		}
	}
}

// settle logs the open write.
func (w *Writer) settle() {
	w.logWrite(w.lo, w.hi)
	w.lo, w.hi = 0, 0
}

// logWrite logs the bytes of [lo, hi) that differ from the before image,
// as writes split at every run of more than maxWriteGap unchanged bytes.
func (w *Writer) logWrite(lo, hi int) {
	b, old := w.buf, w.before
	if string(b[lo:hi]) == string(old[lo:hi]) {
		return
	}
	for i := lo; i < hi; {
		// Unchanged bytes are skipped 64, then 8 at a time.
		for i+64 <= hi && string(b[i:i+64]) == string(old[i:i+64]) {
			i += 64
		}
		for i+8 <= hi && binary.LittleEndian.Uint64(b[i:]) == binary.LittleEndian.Uint64(old[i:]) {
			i += 8
		}
		for i < hi && b[i] == old[i] {
			i++
		}
		if i == hi {
			return
		}
		j := i + 1
		for k := j; k < hi && k <= j+maxWriteGap; k++ {
			if b[k] != old[k] {
				j = k + 1
			}
		}
		switch {
		case !w.undo:
			w.run(i, b[i:j])
		case w.glo <= i && j <= w.ghi:
			w.op(opFill, i, j-i)
			w.ops = append(w.ops, b[i:j]...)
		default:
			w.ops = AppendWrite(w.ops, i, old[i:j], b[i:j])
		}
		i = j
	}
}

// run logs after, written at page offset off, as runs of the open sparse
// write, or of a new one where off lies before its end or too far past it.
func (w *Writer) run(off int, after []byte) {
	for len(after) > 0 {
		skip := off - w.send
		if w.sparse == 0 || skip < 0 || skip > 255 {
			w.op(opSparse, off, 0)
			w.sparse, skip = len(w.ops)-2, 0
		}
		n := min(len(after), 255)
		w.ops = append(append(w.ops, byte(skip), byte(n)), after[:n]...)
		runs := w.ops[w.sparse:]
		binary.LittleEndian.PutUint16(runs, binary.LittleEndian.Uint16(runs)+1)
		off, after, w.send = off+n, after[n:], off+n
	}
}

// AppendWrite appends to ops a write of after over before at page offset
// off, as a Writer logs one.
func AppendWrite(ops []byte, off int, before, after []byte) []byte {
	ops = append(ops, opWrite)
	ops = binary.LittleEndian.AppendUint16(ops, uint16(off))
	ops = binary.LittleEndian.AppendUint16(ops, uint16(len(after)))
	return append(append(ops, before...), after...)
}

// op appends an operation's kind and fields.  Any operation but a write
// ends the fills of the last insert or move, and any ends the open sparse
// write.
func (w *Writer) op(kind byte, fields ...int) {
	if kind != opFill {
		w.glo, w.ghi = 0, 0
	}
	w.sparse = 0
	w.ops = append(w.ops, kind)
	for _, f := range fields {
		w.ops = binary.LittleEndian.AppendUint16(w.ops, uint16(f))
	}
}

// lost returns the region a move of n bytes from src to dst overwrites
// outside its source.
func lost(dst, src, n int) (lo, hi int) {
	if dst > src {
		return max(dst, src+n), dst + n
	}
	return dst, min(dst+n, src)
}

// SetType stores the page type.
func (w *Writer) SetType(t Type) { w.PutUint16(offType, uint16(t)) }

// Insert adds a record to the slotted page, as Buf.Insert does.
func (w *Writer) Insert(rec []byte) (int, error) {
	slot := w.buf.SlotCount()
	cell, err := w.InsertAt(slot, len(rec))
	if err != nil {
		return 0, err
	}
	copy(cell, rec)
	return slot, nil
}

// Delete marks the slot as deleted, as Buf.Delete does.
func (w *Writer) Delete(slot int) error {
	if slot < 0 || slot >= w.buf.SlotCount() {
		return w.buf.Delete(slot)
	}
	clear(w.Bytes(slotOff(slot), SlotSize))
	return nil
}

// ClearSlots empties the slotted page and ends its cell area at page
// offset end: the bytes from end on are the caller's.
func (w *Writer) ClearSlots(end int) {
	w.PutUint16(offSlots, 0)
	w.PutUint16(offLower, HeaderSize)
	w.PutUint16(offUpper, uint16(end))
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
	w.settle()
	w.op(opInsert, i, n)
	count, upper := b.SlotCount(), b.upper()
	w.freed = append(w.freed, b[slotOff(count):slotOff(count+1)]...)
	w.freed = append(w.freed, b[upper-n:upper]...)
	b.insertAt(i, n)
	if w.earlier != nil && !w.asked {
		if f, ok := w.earlier(b.ID()); ok {
			w.free = f
		}
		w.asked = true
	}
	if w.glo, w.ghi = max(upper-n, w.free.Lo), min(upper, w.free.Hi); w.glo >= w.ghi {
		w.glo, w.ghi = 0, 0
	}
	return w.Bytes(upper-n, n), nil
}

// RemoveAt closes slot i of a page whose slots are kept in order, moving
// the slots above it down by one.  The cell's bytes stay where they are
// until Compact, unless it is the lowest cell, whose space is free at once.
func (w *Writer) RemoveAt(i int) {
	w.settle()
	if !w.undo {
		w.op(opRemove, i)
	} else {
		off, n := w.buf.slotOffsets(i)
		w.op(opRemove, i, off, n)
	}
	w.buf.removeAt(i)
}

// Compact moves the cells of a page without deleted slots together against
// page offset end, keeping their order on the page, so that all its free
// space lies between the slots and the cells.  It is logged as the writes
// it makes to the header, the slot array and the cell area.
func (w *Writer) Compact(end int) {
	b := w.buf
	w.settle()
	w.glo, w.ghi = 0, 0
	type cell struct{ slot, off, n int }
	cells := make([]cell, b.SlotCount())
	for i := range cells {
		off, n := b.slotOffsets(i)
		cells[i] = cell{i, off, n}
	}
	slices.SortFunc(cells, func(x, y cell) int { return y.off - x.off })
	slots, upper := slotOff(len(cells)), b.upper()
	copy(w.before[offUpper:slots], b[offUpper:slots])
	copy(w.before[upper:end], b[upper:end])
	at := end
	for _, c := range cells {
		at -= c.n
		copy(b[at:at+c.n], b[c.off:c.off+c.n])
		b.setSlot(c.slot, at, c.n)
	}
	b.setUpper(at)
	w.logWrite(offUpper, slots)
	w.logWrite(upper, end)
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
// capacity ends with them.  A write that starts where the open one ends
// joins it.
func (w *Writer) Bytes(off, n int) []byte {
	if off != w.hi || w.hi == 0 {
		w.settle()
		w.lo = off
	}
	w.hi = off + n
	copy(w.before[off:off+n], w.buf[off:off+n])
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
// sorted array.
func (w *Writer) Move(dst, src, n int) {
	if n <= 0 || dst == src {
		return
	}
	w.settle()
	w.op(opMove, dst, src, n)
	if w.undo {
		lo, hi := lost(dst, src, n)
		w.ops = append(w.ops, w.buf[lo:hi]...)
	}
	copy(w.buf[dst:dst+n], w.buf[src:src+n])
	w.glo, w.ghi = lost(src, dst, n)
}

// Redo runs the operations ops on buf, which must be the page they were
// recorded on, as it was when they were; undo says whether they carry undo
// information (an update record's do, a compensation record's do not).
// CheckOps has accepted them.
func Redo(buf Buf, ops []byte, undo bool) {
	for len(ops) > 0 {
		var o op
		o, ops, _ = nextOp(ops, undo)
		switch o.kind {
		case opWrite, opFill:
			copy(buf[o.a:], o.after)
		case opMove:
			copy(buf[o.a:o.a+o.c], buf[o.b:o.b+o.c])
		case opInsert:
			buf.insertAt(o.a, o.b)
		case opRemove:
			buf.removeAt(o.a)
		case opSparse:
			for at, runs := o.a, o.after; len(runs) > 0; {
				at += int(runs[0])
				n := int(runs[1])
				copy(buf[at:at+n], runs[2:2+n])
				at, runs = at+n, runs[2+n:]
			}
		}
	}
}

// CheckOps reports whether ops is a well-formed list of operations, with
// undo information or without, every region of which lies in the page.
func CheckOps(ops []byte, undo bool) error {
	for rest, ok := ops, true; len(rest) > 0; {
		at := len(ops) - len(rest)
		if _, rest, ok = nextOp(rest, undo); !ok {
			return fmt.Errorf("page: malformed operation at byte %d", at)
		}
	}
	return nil
}

// op is one decoded operation: its fields in the order of the encoding,
// its undo information and its bytes.
type op struct {
	kind          byte
	a, b, c       int
	before, after []byte
}

// opFields is how many fields each kind of operation has, its undo
// information included.
var opFields = [...]int{opWrite: 2, opFill: 2, opMove: 3, opInsert: 2, opRemove: 3, opSparse: 2}

// nextOp decodes the operation ops starts with and returns it and the rest
// of ops; ok is false, and the rest empty, if it is malformed.
func nextOp(ops []byte, undo bool) (o op, rest []byte, ok bool) {
	o.kind = ops[0]
	fields := 0
	if int(o.kind) < len(opFields) {
		fields = opFields[o.kind]
	}
	if o.kind == opRemove && !undo {
		fields = 1
	}
	if fields == 0 || len(ops) < 1+2*fields {
		return o, nil, false
	}
	var f [3]int
	for i := range fields {
		f[i] = int(binary.LittleEndian.Uint16(ops[1+2*i:]))
	}
	o.a, o.b, o.c = f[0], f[1], f[2]
	before, after := 0, 0 // the lengths of its images
	switch o.kind {
	case opWrite, opFill:
		ok = o.b > 0 && o.a+o.b <= Size && (undo || o.kind == opWrite)
		after = o.b
		if undo && o.kind == opWrite {
			before = o.b
		}
	case opMove:
		ok = o.c > 0 && o.a != o.b && max(o.a, o.b)+o.c <= Size
		if lo, hi := lost(o.a, o.b, o.c); undo {
			before = hi - lo
		}
	case opInsert:
		ok = slotOff(o.a+1) <= Size && o.b <= PayloadSize
	case opRemove:
		ok = o.b+o.c <= Size
	case opSparse:
		// after is the runs, which must stay in the page.
		ok = !undo && o.b > 0
		at, runs := o.a, ops[1+2*fields:]
		for range o.b {
			if len(runs) < 2 || runs[1] == 0 || len(runs) < 2+int(runs[1]) {
				ok = false
				break
			}
			n := int(runs[1])
			at, after, runs = at+int(runs[0])+n, after+2+n, runs[2+n:]
		}
		ok = ok && at <= Size
	}
	rest = ops[1+2*fields:]
	if !ok || len(rest) < before+after {
		return o, nil, false
	}
	o.before, o.after = rest[:before:before], rest[before:before+after:before+after]
	return o, rest[before+after:], true
}
