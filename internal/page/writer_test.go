package page

import (
	"bytes"
	"math/rand"
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
	w := NewWriter()
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

// TestWriterKeepsWhatItWrote: after any mix of the Writer's methods, every
// byte that changed lies in a window, the windows ascend more than
// WindowGap apart, the before image holds the old bytes across each window,
// and Restore gives the page back.
func TestWriterKeepsWhatItWrote(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
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
		w := NewWriter()
		w.Reset(b)
		for range 1 + rng.Intn(60) {
			writeSomething(rng, w, slotted)
		}
		wins := w.Windows()
		for i, win := range wins {
			if win.Lo >= win.Hi || i > 0 && wins[i-1].Hi+WindowGap >= win.Lo {
				t.Fatalf("iter %d: windows %v", iter, wins)
			}
			if !bytes.Equal(w.Before()[win.Lo:win.Hi], orig[win.Lo:win.Hi]) {
				t.Fatalf("iter %d: the before image of window %v is not the page's", iter, win)
			}
		}
		for i := range b {
			if b[i] != orig[i] && !inWindow(wins, i) {
				t.Fatalf("iter %d: byte %d changed outside the windows %v", iter, i, wins)
			}
		}
		w.Restore()
		if !bytes.Equal(b, orig) {
			t.Fatalf("iter %d: Restore over windows %v does not give the page back", iter, wins)
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

func inWindow(wins []Window, i int) bool {
	for _, win := range wins {
		if win.Lo <= i && i < win.Hi {
			return true
		}
	}
	return false
}

// TestWriterSlottedMatchesBuf: the Writer's slotted-page methods do what
// Buf's do, errors included.
func TestWriterSlottedMatchesBuf(t *testing.T) {
	b, ref := NewBuf(), NewBuf()
	b.Init(5, TypeHeap)
	ref.Init(5, TypeHeap)
	w := NewWriter()
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
	w := NewWriter()
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
