package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRecordIsCapped: the record slices Buf.Record and Writer.Record
// return end with the record, so an append reallocates and leaves the
// neighbouring cells — the records inserted before it — as they were.
func TestRecordIsCapped(t *testing.T) {
	b := NewBuf()
	b.Init(1, TypeHeap)
	for _, r := range []string{"first", "second", "third"} {
		if _, err := b.Insert([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Clone()
	w := NewWriter(nil)
	w.Reset(b)
	for name, record := range map[string]func(int) ([]byte, error){"Buf": b.Record, "Writer": w.Record} {
		rec, err := record(2)
		if err != nil {
			t.Fatal(err)
		}
		if cap(rec) != len(rec) {
			t.Fatalf("%s.Record: capacity %d for a record of %d bytes", name, cap(rec), len(rec))
		}
		grown := append(rec, "-and-more"...)
		if &grown[0] == &rec[0] || !bytes.Equal(b, want) {
			t.Fatalf("%s.Record: an append wrote into the page", name)
		}
	}
}

// TestWriterOpsRoundTrip: after any mix of the Writer's methods, the
// operations it logged are well formed, redone on the page as it was they
// give the page as it is, undone on the page as it is they give back every
// byte the page used before (a new cell leaves its bytes in the free
// space), and Restore gives the page back exactly.
func TestWriterOpsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	undoer := NewWriter(nil)
	for iter := range 2000 {
		orig := NewBuf()
		rng.Read(orig)
		slotted := iter%3 == 0
		if slotted {
			orig.Init(ID(iter), TypeHeap)
			for range rng.Intn(20) {
				orig.Insert(make([]byte, 1+rng.Intn(60)))
			}
		}
		b := orig.Clone()
		w := NewWriter(nil)
		w.Reset(b)
		for range 1 + rng.Intn(60) {
			writeSomething(rng, w, slotted)
		}
		ops := w.Ops()
		if err := CheckOps(ops, true); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		redone := orig.Clone()
		Redo(redone, ops, true)
		if !bytes.Equal(redone, b) {
			t.Fatalf("iter %d: redoing %d bytes of operations does not give the page", iter, len(ops))
		}
		undone := b.Clone()
		clr := undoer.Undo(undone, ops)
		if err := CheckOps(clr, false); err != nil {
			t.Fatalf("iter %d: compensation: %v", iter, err)
		}
		free := [2]int{}
		if slotted {
			free = [2]int{orig.lower(), orig.upper()}
		}
		for i := range orig {
			if undone[i] != orig[i] && (i < free[0] || i >= free[1]) {
				t.Fatalf("iter %d: undo leaves byte %d changed outside the free space %v", iter, i, free)
			}
		}
		again := b.Clone()
		Redo(again, clr, false)
		if !bytes.Equal(again, undone) {
			t.Fatalf("iter %d: redoing the compensation does not give the undone page", iter)
		}
		w.Restore()
		if !bytes.Equal(b, orig) {
			t.Fatalf("iter %d: Restore does not give the page back", iter)
		}
	}
}

// writeSomething makes one random write through w.  On a slotted page the
// raw writes keep off the header and the slot array, which they would
// otherwise leave pointing anywhere.
func writeSomething(rng *rand.Rand, w *Writer, slotted bool) {
	b := w.Page()
	floor := 0
	if slotted {
		floor = 512
	}
	off := floor + rng.Intn(Size-8-floor)
	switch rng.Intn(6) {
	case 0:
		rng.Read(w.Bytes(off, 1+rng.Intn(min(40, Size-off))))
	case 1:
		w.PutUint16(off, uint16(rng.Uint32()))
	case 2:
		w.PutUint64(off, rng.Uint64())
	case 3:
		k, n := 1+rng.Intn(127), rng.Intn(2000)
		src := floor + rng.Intn(Size-k-n-floor)
		if rng.Intn(2) == 0 {
			w.Move(src+k, src, n)
		} else {
			w.Move(src, src+k, n)
		}
	default:
		if !slotted {
			w.SetType(Type(rng.Intn(6)))
			return
		}
		n := b.SlotCount()
		switch slot := rng.Intn(n + 1); {
		case slot == n:
			w.Insert(make([]byte, 1+rng.Intn(60)))
		case rng.Intn(2) == 0:
			w.Delete(slot)
		default:
			if rec, err := w.Record(slot); err == nil {
				rng.Read(rec)
			}
		}
	}
}

// TestWriterSlottedMatchesBuf: the Writer's slotted-page methods do what
// Buf's do, errors included.
func TestWriterSlottedMatchesBuf(t *testing.T) {
	b, ref := NewBuf(), NewBuf()
	b.Init(5, TypeHeap)
	ref.Init(5, TypeHeap)
	w := NewWriter(nil)
	w.Reset(b)
	rng := rand.New(rand.NewSource(32))
	for range 500 {
		rec := make([]byte, 1+rng.Intn(300))
		rng.Read(rec)
		slot := rng.Intn(b.SlotCount() + 2)
		var got, want error
		if rng.Intn(2) == 0 {
			_, got = w.Insert(rec)
			_, want = ref.Insert(rec)
		} else {
			got, want = w.Delete(slot), ref.Delete(slot)
		}
		if (got == nil) != (want == nil) || !bytes.Equal(b, ref) {
			t.Fatalf("Writer: %v, Buf: %v, pages equal: %v", got, want, bytes.Equal(b, ref))
		}
	}
}

// splitRef is logWrite's split of a window [lo, hi), a byte at a time:
// each changed byte starts a write, or joins the last one if at most
// maxWriteGap unchanged bytes lie between them.
func splitRef(before, after Buf, lo, hi int) (writes [][2]int) {
	for i := lo; i < hi; i++ {
		if before[i] == after[i] {
			continue
		}
		if n := len(writes); n > 0 && i-writes[n-1][1] <= maxWriteGap {
			writes[n-1][1] = i + 1
		} else {
			writes = append(writes, [2]int{i, i + 1})
		}
	}
	return writes
}

// checkSplit writes after's bytes of the window [lo, hi) over before
// through a Writer, and holds what it logs to splitRef: the same writes,
// each with the before and after images of its bytes, which redone give
// the page as written and undone give it back exactly.
func checkSplit(t *testing.T, before, after Buf, lo, hi int) {
	t.Helper()
	b := before.Clone()
	w := NewWriter(nil)
	w.Reset(b)
	copy(w.Bytes(lo, hi-lo), after[lo:hi])
	ops := w.Ops()
	var got [][2]int
	for rest := ops; len(rest) > 0; {
		o, next, ok := nextOp(rest, true)
		if !ok || o.kind != opWrite {
			t.Fatalf("operation %d of %v is not a write", len(got), splitRef(before, after, lo, hi))
		}
		if !bytes.Equal(o.before, before[o.a:o.a+o.b]) || !bytes.Equal(o.after, after[o.a:o.a+o.b]) {
			t.Fatalf("the images of the write [%d, %d) are not the page's", o.a, o.a+o.b)
		}
		got = append(got, [2]int{o.a, o.a + o.b})
		rest = next
	}
	if want := splitRef(before, after, lo, hi); !slices.Equal(got, want) {
		t.Fatalf("logged writes %v, want %v", got, want)
	}
	redone := before.Clone()
	Redo(redone, ops, true)
	if !bytes.Equal(redone, b) {
		t.Fatal("redo of the writes does not give the page as written")
	}
	NewWriter(nil).Undo(b, ops)
	if !bytes.Equal(b, before) {
		t.Fatal("undo of the writes does not give the page back")
	}
}

// TestWriteSplitMatchesReference: a write window is logged as splitRef
// splits it, over random changes and over the places the word loops of
// logWrite go wrong — the page's first and last bytes, a change across a
// word boundary, one inside the LSN field, two changes a gap of
// maxWriteGap, and of 64 (a skipped block), and one either side of it
// apart, runs of changed bytes at every alignment, arrays moved to the
// page end, and windows that end inside a word.
func TestWriteSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	random := func() Buf {
		b := NewBuf()
		rng.Read(b)
		return b
	}
	records := NewBuf()
	records.Init(9, TypeHeap)
	for records.FreeSpace() > 40 {
		rec := make([]byte, 18)
		rng.Read(rec)
		records.Insert(rec)
	}
	for iter := range 3000 {
		before := NewBuf()
		if iter%2 == 1 {
			before = random()
		}
		after := before.Clone()
		for range 1 + rng.Intn(8) {
			off := rng.Intn(Size)
			n := min(1+rng.Intn(80), Size-off)
			for i := off; i < off+n; i += 1 + rng.Intn(1+iter%5) {
				after[i] = byte(rng.Intn(256))
			}
		}
		lo := rng.Intn(Size)
		hi := lo + rng.Intn(Size-lo+1)
		if iter%3 == 0 {
			lo, hi = 0, Size
		}
		checkSplit(t, before, after, lo, hi)
	}

	flip := func(name string, offs ...int) {
		t.Run(name, func(t *testing.T) {
			for _, before := range []Buf{NewBuf(), random(), records} {
				after := before.Clone()
				for _, off := range offs {
					after[off] ^= 0x5A
				}
				checkSplit(t, before, after, 0, Size)
			}
		})
	}
	flip("unchanged")
	flip("first byte", 0)
	flip("last byte", Size-1)
	flip("first and last byte", 0, Size-1)
	flip("across a word boundary", 1023, 1024)
	flip("across the last word boundary", Size-9, Size-8)
	flip("inside the LSN field", 8, 11, 15)
	for _, at := range []int{0, 1, 7, 8, 9, 2048, 2051, Size - 16} {
		for _, gap := range []int{maxWriteGap - 1, maxWriteGap, maxWriteGap + 1, 63, 64, 65} {
			if at+gap+1 < Size {
				flip(fmt.Sprintf("gap of %d at %d", gap, at), at, at+gap+1)
			}
		}
	}
	for off := 0; off < 24; off++ {
		flip(fmt.Sprintf("every byte of a word run at %d", off), off, off+1, off+2, off+3, off+4, off+5, off+6, off+7, off+8)
	}

	t.Run("array shifts ending at the page end", func(t *testing.T) {
		for k := 1; k <= 64; k++ {
			for _, start := range []int{HeaderSize, 1000, 1003, Size - 200} {
				before := random()
				up := before.Clone()
				copy(up[start+k:], before[start:Size-k])
				rng.Read(up[start : start+k])
				checkSplit(t, before, up, 0, Size)
				down := before.Clone()
				copy(down[start:], before[start+k:])
				rng.Read(down[Size-k:])
				checkSplit(t, before, down, 0, Size)
			}
		}
	})
	t.Run("windows ending inside a word", func(t *testing.T) {
		for _, lo := range []int{0, 3, 8, 1001} {
			for n := 1; n <= 80; n++ {
				before := random()
				after := before.Clone()
				after[lo] ^= 0x5A
				after[lo+n-1] ^= 0xA5
				// A change just past the window is not the Writer's.
				after[lo+n] ^= 0x0F
				checkSplit(t, before, after, lo, lo+n)
			}
		}
	})
}

// TestRecordOverwrite: a record overwritten in place through Writer.Record
// is logged as one write of its changed bytes, which undone gives the
// record back.
func TestRecordOverwrite(t *testing.T) {
	b := NewBuf()
	b.Init(1, TypeHeap)
	s, err := b.Insert([]byte("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	orig := b.Clone()
	w := NewWriter(nil)
	w.Reset(b)
	rec, err := w.Record(s)
	if err != nil {
		t.Fatal(err)
	}
	copy(rec, "HELLO")
	if got, _ := b.Record(s); string(got) != "HELLO world" {
		t.Fatalf("overwritten record = %q", got)
	}
	off, _ := b.slotOffsets(s)
	if want := AppendWrite(nil, off, []byte("hello"), []byte("HELLO")); !bytes.Equal(w.Ops(), want) {
		t.Fatalf("logged % x, want % x", w.Ops(), want)
	}
	NewWriter(nil).Undo(b, w.Ops())
	if !bytes.Equal(b, orig) {
		t.Fatal("undo does not give the record back")
	}
}

// TestOrderedSlots: cells opened and closed at chosen slots keep the slot
// order, compaction gives back the space of removed cells without moving
// the bytes after the cell area's end or changing any cell, and Restore
// undoes all of it.
func TestOrderedSlots(t *testing.T) {
	const end = Size - 16
	rng := rand.New(rand.NewSource(1))
	b := NewBuf()
	b.Init(3, TypeRecordLeaf)
	copy(b[end:], "sixteen trailing")
	w := NewWriter(nil)
	w.Reset(b)
	w.ClearSlots(end)
	var model [][]byte // the cells in slot order
	for step := 0; step < 2000; step++ {
		if n := len(model); n > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(n)
			w.RemoveAt(i)
			model = append(model[:i], model[i+1:]...)
		} else {
			cell := bytes.Repeat([]byte{byte(step)}, 1+rng.Intn(200))
			if b.FreeSpace() < len(cell) {
				w.Compact(end)
			}
			i := rng.Intn(len(model) + 1)
			dst, err := w.InsertAt(i, len(cell))
			if err != nil {
				if total := end - HeaderSize - (len(model)+1)*SlotSize - b.CellBytes(); total >= len(cell) {
					t.Fatalf("step %d: InsertAt of %d bytes: %v, with %d bytes free once compacted", step, len(cell), err, total)
				}
				continue
			}
			copy(dst, cell)
			model = append(model[:i], append([][]byte{cell}, model[i:]...)...)
		}
		if b.SlotCount() != len(model) || string(b[end:]) != "sixteen trailing" {
			t.Fatalf("step %d: %d slots for %d cells, trailing bytes %q", step, b.SlotCount(), len(model), b[end:])
		}
		for i, cell := range model {
			if !bytes.Equal(b.Cell(i), cell) {
				t.Fatalf("step %d: cell %d holds %d bytes of %d, want %d of %d", step, i, len(b.Cell(i)), b.Cell(i)[0], len(cell), cell[0])
			}
		}
	}
	w.Compact(end)
	if free, want := b.FreeSpace(), end-HeaderSize-(len(model)+1)*SlotSize-b.CellBytes(); free != want {
		t.Fatalf("FreeSpace after Compact = %d, want %d", free, want)
	}
	before := NewBuf()
	before.Init(3, TypeRecordLeaf)
	copy(before[end:], "sixteen trailing")
	w.Restore()
	if !bytes.Equal(b, before) {
		t.Fatal("Restore did not bring the page back")
	}
}
