package engine

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// FuzzOpRoundTrip: whatever a callback does to whatever page through its
// Writer, the operations it logged survive a trip through the log, redone
// on the before image they give the after image, undone on the after image
// they give back every byte of the before image but those a new cell or its
// slot took from the free space, the compensation operations of that undo
// redo it, and Restore gives the before image back exactly.  The page is
// the seed repeated (seedPage), formatted as a slotted page holding a few
// records when the seed starts with an odd byte; the script is read as
// runWriter's six-byte commands.  The seed corpus is in
// testdata/fuzz/FuzzOpRoundTrip.
func FuzzOpRoundTrip(f *testing.F) {
	f.Add([]byte("\x01abcdefghijklmnopqrstuvwxyz"), []byte{4, 0, 0, 17, 'x', 0, 3, 0x40, 0x01, 99, 0, 18, 2, 0x20, 0x00, 0, 7, 0})
	f.Add([]byte("\x01abcdefghijklmnopqrstuvwxyz"), []byte{8, 0, 0, 60, 'y', 0, 9, 0, 0, 0, 2, 0, 10, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed, script []byte) {
		before := seedPage(seed)
		if len(seed) > 0 && seed[0]&1 != 0 {
			before.Init(9, page.TypeHeap)
			for i := 0; i+8 <= len(seed) && i < 64; i += 8 {
				if _, err := before.Insert(seed[i : i+8]); err != nil {
					t.Fatal(err)
				}
			}
		}
		after := before.Clone()
		w := page.NewWriter(nil)
		w.Reset(after)
		taken := runWriter(w, script)
		checkOpRoundTrip(t, before, w, taken)
	})
}

// checkOpRoundTrip checks FuzzOpRoundTrip's property for the edit w made of
// before, whose new cells took the byte ranges taken.
func checkOpRoundTrip(t *testing.T, before page.Buf, w *page.Writer, taken [][2]int) {
	t.Helper()
	after := w.Page()
	ops := bytes.Clone(w.Ops())
	if len(ops) == 0 {
		if !bytes.Equal(before, after) {
			t.Fatal("an edit that changed the page logged nothing")
		}
		return
	}
	update := logTrip(t, &wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 9, Ops: ops})
	redone := before.Clone()
	page.Redo(redone, update.Ops, true)
	if !bytes.Equal(redone, after) {
		t.Fatalf("redo of %d bytes of operations does not give the after image", len(ops))
	}
	undone := after.Clone()
	clr := logTrip(t, &wal.Record{Type: wal.TypeCompensation, TxID: 1, PageID: 9, Ops: page.NewWriter(nil).Undo(undone, update.Ops)})
	for i := range before {
		if undone[i] != before[i] && !inRanges(taken, i) {
			t.Fatalf("undo leaves byte %d changed, which no new cell took (%v)", i, taken)
		}
	}
	again := after.Clone()
	page.Redo(again, clr.Ops, false)
	if !bytes.Equal(again, undone) {
		t.Fatal("redo of the compensation does not give the undone page")
	}
	w.Restore()
	if !bytes.Equal(after, before) {
		t.Fatal("Restore does not give the before image")
	}
}

// logTrip appends r to a log of its own and returns it as the log reads it
// back.
func logTrip(t *testing.T, r *wal.Record) *wal.Record {
	t.Helper()
	log, err := wal.Open(device.New("log", device.ProfileCheetah15K, 256))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	var got *wal.Record
	if err := log.Iterate(0, func(r *wal.Record) error { got = r; return nil }); err != nil || got == nil {
		t.Fatalf("reading the record back: %v", err)
	}
	return got
}

func inRanges(ranges [][2]int, i int) bool {
	for _, r := range ranges {
		if r[0] <= i && i < r[1] {
			return true
		}
	}
	return false
}

// seedPage fills a page with seed, repeated.
func seedPage(seed []byte) page.Buf {
	buf := page.NewBuf()
	for i := 0; len(seed) > 0 && i < page.Size; i += len(seed) {
		copy(buf[i:], seed)
	}
	return buf
}

// runWriter applies six-byte commands — operation (whose top bit makes the
// length count eights), offset (two bytes), length, value, shift — to the
// page through w: a fill, stores of 16 and 64 bits, a move by up to 128
// bytes either way, and the slotted-page operations, which are skipped on a
// page whose slotted header or slot does not hold together, and the ordered
// ones (InsertAt, RemoveAt, Compact) also on a page with deleted slots.  A
// new cell is not made after a move, which no storage layer does on a
// slotted page: undoing the move copies back what its destination holds,
// and a new cell may have taken that from the free space.  It returns the
// ranges the new cells and their slots took.
func runWriter(w *page.Writer, script []byte) (taken [][2]int) {
	buf := w.Page()
	moved := false
	for ; len(script) >= 6; script = script[6:] {
		off := int(binary.LittleEndian.Uint16(script[1:])) % page.Size
		n := 1 + int(script[3])
		if script[0]&0x80 != 0 {
			n *= 8
		}
		val, k := script[4], int8(script[5])
		// take notes the free space a new cell of n bytes takes, if it
		// fits: [upper-n, upper) and the next slot.
		take := func() {
			if buf.FreeSpace() >= n {
				count, upper := buf.SlotCount(), int(binary.LittleEndian.Uint16(buf[26:]))
				taken = append(taken, [2]int{upper - n, upper}, [2]int{page.HeaderSize + 4*count, page.HeaderSize + 4*count + 4})
			}
		}
		switch (script[0] & 0x7F) % 11 {
		case 0:
			b := w.Bytes(off, min(n, page.Size-off))
			for i := range b {
				b[i] = val + byte(i)
			}
		case 1:
			w.PutUint16(min(off, page.Size-2), uint16(val)<<8|uint16(script[5]))
		case 2:
			w.PutUint64(min(off, page.Size-8), uint64(val)*0x0101010101010101^uint64(script[5]))
		case 3:
			d := max(int(k), -int(k)) % page.Size
			src := off % (page.Size - d)
			dst := src + d
			if k < 0 {
				src, dst = dst, src
			}
			w.Move(dst, src, min(n, page.Size-max(src, dst)))
			moved = true
		case 4:
			if slotted(buf) && !moved {
				take()
				w.Insert(bytes.Repeat([]byte{val}, n))
			}
		case 5:
			if slot, ok := liveSlot(buf, int(val)); ok {
				rec, _ := w.Record(slot)
				copy(rec, bytes.Repeat([]byte{script[5]}, n%17))
			}
		case 6:
			if slotted(buf) {
				w.Delete(int(val) % max(buf.SlotCount(), 1))
			}
		case 7:
			if slot, ok := liveSlot(buf, int(val)); ok {
				rec, _ := w.Record(slot)
				for i := range rec {
					rec[i] ^= script[5]
				}
			} else {
				w.SetType(page.Type(val))
			}
		case 8:
			if ordered(buf) && !moved {
				take()
				if cell, err := w.InsertAt(int(val)%(buf.SlotCount()+1), n); err == nil {
					for i := range cell {
						cell[i] = script[5] ^ byte(i)
					}
				}
			}
		case 9:
			if ordered(buf) && buf.SlotCount() > 0 {
				w.RemoveAt(int(val) % buf.SlotCount())
			}
		case 10:
			if ordered(buf) {
				w.Compact(page.Size)
			}
		}
	}
	return taken
}

// slotted reports whether the page's slotted header holds together: the
// slot array ends where the slot count says and below the cell area, which
// ends in the page.
func slotted(buf page.Buf) bool {
	lower := int(binary.LittleEndian.Uint16(buf[24:]))
	upper := int(binary.LittleEndian.Uint16(buf[26:]))
	return lower == page.HeaderSize+4*buf.SlotCount() && lower <= upper && upper <= page.Size
}

// ordered reports whether the page is slotted, without deleted slots, and
// with every cell in the cell area: one whose slots may be kept in order.
func ordered(buf page.Buf) bool {
	if !slotted(buf) {
		return false
	}
	upper := int(binary.LittleEndian.Uint16(buf[26:]))
	for i := range buf.SlotCount() {
		base := page.HeaderSize + 4*i
		off, n := int(binary.LittleEndian.Uint16(buf[base:])), int(binary.LittleEndian.Uint16(buf[base+2:]))
		if off < upper || off+n > page.Size {
			return false
		}
	}
	return true
}

// liveSlot picks a slot of a slotted page by v whose record lies in the
// page.
func liveSlot(buf page.Buf, v int) (int, bool) {
	if !slotted(buf) || buf.SlotCount() == 0 {
		return 0, false
	}
	slot := v % buf.SlotCount()
	base := page.HeaderSize + 4*slot
	off, n := int(binary.LittleEndian.Uint16(buf[base:])), int(binary.LittleEndian.Uint16(buf[base+2:]))
	return slot, off != 0 && off+n <= page.Size
}
