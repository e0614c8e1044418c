package engine

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// encodedSize is what the edits cost in an update record.
func encodedSize(edits []wal.Edit) int {
	n := 0
	for _, e := range edits {
		n += wal.EditHeaderSize + len(e.Before) + len(e.After)
	}
	return n
}

// checkRoundTrip fails unless the edits are a list the log takes —
// ascending, disjoint, inside the page, shifts an edit can hold, images of
// their length — that turns before into after and, inverted, after back
// into before.
func checkRoundTrip(t *testing.T, before, after page.Buf, edits []wal.Edit) {
	t.Helper()
	end := 0
	for i, e := range edits {
		k := max(int(e.Shift), -int(e.Shift))
		n := int(e.Len)
		if k != 0 {
			n = k
		}
		if e.Len == 0 || int(e.Off) < end || int(e.Off)+int(e.Len) > page.Size ||
			e.Shift == -128 || k > int(e.Len) || len(e.Before) != n || len(e.After) != n {
			t.Fatalf("edit %d of %s is not one the log takes", i, editShapes(edits))
		}
		end = int(e.Off) + int(e.Len)
	}
	if got := applyAll(before, edits); !bytes.Equal(got, after) {
		t.Fatalf("redo of %s does not give the after image", editShapes(edits))
	}
	undo := slices.Clone(edits)
	wal.Invert(undo)
	if got := applyAll(after, undo); !bytes.Equal(got, before) {
		t.Fatalf("undo of %s does not give the before image", editShapes(edits))
	}
}

// declared is one move of n bytes from src to dst.
func declared(dst, src, n int) move { return move{dst: dst, src: src, n: n} }

// windowed returns the edits Edit logs for the edit w made: the windowed
// differ's, over w's before image and windows.
func windowed(w *page.Writer) []wal.Edit {
	return new(editArena).diff(w.Before(), w.Page(), movedBy(w), w.Windows())
}

// checkEdit fails unless the edit w made of the page whose image was before
// logs what diffMoved finds in the whole page, a list that round-trips, and
// unless Restore puts the page back.  It returns the edits.
func checkEdit(t *testing.T, before page.Buf, w *page.Writer) []wal.Edit {
	t.Helper()
	after := w.Page()
	got, want := windowed(w), diffMoved(before, after, movedBy(w))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windows %v give %s, the whole page %s", w.Windows(), editShapes(got), editShapes(want))
	}
	checkRoundTrip(t, before, after, got)
	kept := after.Clone()
	w.Restore()
	if !bytes.Equal(after, before) {
		t.Fatalf("Restore over windows %v does not give the before image", w.Windows())
	}
	copy(after, kept)
	return got
}

// randomMove returns a move by 1 to 127 bytes either way, of 0 bytes up to
// as many as reach the page end.
func randomMove(rng *rand.Rand) move {
	k := 1 + rng.Intn(maxDeclaredShift)
	lo := rng.Intn(page.Size - k)
	room := page.Size - lo - k
	var n int
	switch rng.Intn(4) {
	case 0:
		n = rng.Intn(min(room, 2*minShiftRegion) + 1)
	case 1:
		n = room // to the page end
	default:
		n = rng.Intn(room + 1)
	}
	if rng.Intn(2) == 0 {
		return declared(lo, lo+k, n)
	}
	return declared(lo+k, lo, n)
}

// scribble overwrites one to eight bytes at a random offset in [lo, hi)
// through w.
func scribble(rng *rand.Rand, w *page.Writer, lo, hi int) {
	if hi <= lo {
		return
	}
	off := lo + rng.Intn(hi-lo)
	rng.Read(w.Bytes(off, min(hi, off+1+rng.Intn(8))-off))
}

// movedEdit is a page of one of mutatedPair's kinds and a Writer that has
// changed a copy of it the way a B-tree callback changes a node: perhaps a
// write, one Move, and writes below, inside (where the gap opened) and
// above the moved region.  With clobber, one later write lands on the moved
// bytes, so that the move no longer describes the page.
func movedEdit(rng *rand.Rand, iter int, clobber bool) (before page.Buf, w *page.Writer, m move) {
	before, _ = mutatedPair(rng, iter)
	w = page.NewWriter()
	w.Reset(before.Clone())
	m = randomMove(rng)
	if rng.Intn(4) == 0 {
		scribble(rng, w, 0, page.Size)
	}
	dst, src, n := m.dst, m.src, m.n
	w.Move(dst, src, n)
	lo, hi := min(src, dst), max(src, dst)+n
	gained := lo // the gap the move opened: its first k bytes, or its last
	if dst < src {
		gained = dst + n
	}
	for range rng.Intn(3) {
		switch rng.Intn(3) {
		case 0:
			scribble(rng, w, 0, lo)
		case 1:
			scribble(rng, w, gained, gained+max(dst-src, src-dst))
		case 2:
			scribble(rng, w, hi, page.Size)
		}
	}
	if clobber && n > 0 {
		w.Bytes(dst+rng.Intn(n), 1)[0] ^= byte(1 + rng.Intn(255))
	}
	return before, w, m
}

// TestDiffMovedRoundTrip: whatever a callback did through its Writer
// around its Move, Edit logs what diffMoved finds in the whole page, which
// turns before into after and back, costs at most one edit header more
// than diffEdits' — which is what it is when the move does not hold — and
// a move the callback's later writes broke is refused.
func TestDiffMovedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	used, saved := 0, 0
	const iters = 4000
	for iter := range iters {
		clobber := iter%4 == 3
		before, w, m := movedEdit(rng, iter, clobber)
		after := w.Page()
		if movedBy(w) != m {
			t.Fatalf("iter %d: the Writer's one move is %+v, want %+v", iter, movedBy(w), m)
		}
		got, plain := checkEdit(t, before, w), diffEdits(before, after)
		_, ok := m.shift(before, after)
		switch {
		case ok && clobber:
			t.Fatalf("iter %d: a move whose bytes were overwritten was taken as a shift", iter)
		case ok:
			used++
		case !reflect.DeepEqual(got, plain):
			t.Fatalf("iter %d: refused move, yet %s differs from diffEdits' %s", iter, editShapes(got), editShapes(plain))
		}
		g, p := encodedSize(got), encodedSize(plain)
		if g > p+wal.EditHeaderSize {
			t.Fatalf("iter %d: move %+v logged as %d bytes %s, diffEdits %d bytes %s",
				iter, m, g, editShapes(got), p, editShapes(plain))
		}
		saved += p - g
	}
	t.Logf("%d of %d moves used, %d bytes of log saved in all", used, iters, saved)
	if used < iters/4 {
		t.Fatalf("only %d of %d moves were used", used, iters)
	}
}

// TestDiffMovedIgnoresOtherDeclarations: no move, two moves, a move by
// nothing, by more than an edit holds or of too few bytes leave the differ
// to find what changed.
func TestDiffMovedIgnoresOtherDeclarations(t *testing.T) {
	before := leafLike(150, 18)
	at := page.HeaderSize + 10 + 40*18
	w := page.NewWriter()
	w.Reset(before.Clone())
	w.Move(at+18, at, 110*18)
	w.Move(at+18, at+18, 0)
	after := w.Page()
	for _, m := range []move{
		{},
		movedBy(w), // two moves declare none
		declared(at, at, 110*18),
		declared(at+128, at, 100),
		declared(at+18, at, minShiftRegion-1),
	} {
		if _, ok := m.shift(before, after); ok {
			t.Fatalf("move %+v was used", m)
		}
		if got, want := diffMoved(before, after, m), diffEdits(before, after); !reflect.DeepEqual(got, want) {
			t.Fatalf("move %+v: %s, diffEdits %s", m, editShapes(got), editShapes(want))
		}
	}
	checkEdit(t, before, w)
}

// FuzzDiffMoved: whatever the page and whatever was written before and
// after a move, the edits diffMoved returns for it turn the one image into
// the other and back.  The page and the writes are fuzzPair's; the move is
// by k bytes (one of the k that no edit holds, 0 and -128, included) at
// offset at, of n bytes.  The seed corpus is in testdata/fuzz/FuzzDiffMoved.
//
// Unlike TestDiffMovedRoundTrip it does not bound the log volume: fuzzPair
// repeats its seed, and a page of period p moved by k is also moved by
// k mod p, which the differ finds and a move does not say.  B-tree nodes
// are not periodic; their empty tails, moved, change nothing and are
// refused by the cost rule.
func FuzzDiffMoved(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed, pre, post []byte, at uint16, k int8, n uint16) {
		before, after := fuzzPair(seed, pre)
		d := max(int(k), -int(k))
		lo := int(at) % (page.Size - d)
		src, dst := lo, lo+d
		if k < 0 {
			src, dst = dst, src
		}
		length := int(n) % (page.Size - lo - d + 1)
		copy(after[dst:dst+length], after[src:src+length])
		runScript(after, post)
		m := declared(dst, src, length)
		checkRoundTrip(t, before, after, diffMoved(before, after, m))
	})
}

// FuzzEdit: whatever a callback does to whatever page through its Writer,
// the edits Edit logs are the ones diffMoved finds in the whole page, they
// turn the one image into the other and back, and Restore undoes the
// callback.  The page is fuzzPair's seed repeated, formatted as a slotted
// page holding a few records when the seed starts with an odd byte; the
// script is read as six-byte commands (see runWriter).  The seed corpus is
// in testdata/fuzz/FuzzEdit.
func FuzzEdit(f *testing.F) {
	f.Add([]byte("\x01abcdefghijklmnopqrstuvwxyz"), []byte{4, 0, 0, 17, 'x', 0, 3, 0x40, 0x01, 99, 0, 18, 2, 0x20, 0x00, 0, 7, 0})
	f.Fuzz(func(t *testing.T, seed, script []byte) {
		before, _ := fuzzPair(seed, nil)
		if len(seed) > 0 && seed[0]&1 != 0 {
			before.Init(9, page.TypeHeap)
			for i := 0; i+8 <= len(seed) && i < 64; i += 8 {
				if _, err := before.Insert(seed[i : i+8]); err != nil {
					t.Fatal(err)
				}
			}
		}
		w := page.NewWriter()
		w.Reset(before.Clone())
		runWriter(w, script)
		checkEdit(t, before, w)
	})
}

// runWriter applies six-byte commands — operation, offset (two bytes),
// length, value, shift — to the page through w: a fill, stores of 16 and
// 64 bits, a move by up to 127 bytes either way, and the slotted-page
// operations, which are skipped on a page whose slotted header or slot does
// not hold together.
func runWriter(w *page.Writer, script []byte) {
	buf := w.Page()
	for ; len(script) >= 6; script = script[6:] {
		off := int(binary.LittleEndian.Uint16(script[1:])) % page.Size
		n := 1 + int(script[3])
		if script[0]&0x80 != 0 {
			n *= 8
		}
		val, k := script[4], int8(script[5])
		switch script[0] % 8 {
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
		case 4:
			if slotted(buf) {
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
		}
	}
}

// slotted reports whether the page's slotted header holds together: the
// slot array ends where the slot count says and below the cell area, which
// ends in the page.
func slotted(buf page.Buf) bool {
	lower := int(binary.LittleEndian.Uint16(buf[24:]))
	upper := int(binary.LittleEndian.Uint16(buf[26:]))
	return lower == page.HeaderSize+4*buf.SlotCount() && lower <= upper && upper <= page.Size
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

// TestMoveDeclaresOnItsPageOnly: a Writer's Move declares on its own page,
// and only for the Edit it was made in: a nested Edit's moves are kept
// apart from its caller's, and the next Edit starts with none.
func TestMoveDeclaresOnItsPageOnly(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	defer db.Close()
	tx := begin(t, db)
	a, _ := tx.Alloc(page.TypeHeap)
	b, _ := tx.Alloc(page.TypeHeap)

	if err := tx.Edit(a, func(w *page.Writer) error {
		w.Bytes(100, 1)[0] = 7
		w.Move(118, 100, 400)
		if err := tx.Edit(b, func(inner *page.Writer) error {
			if inner == w || movedBy(inner) != (move{}) {
				t.Fatalf("a nested Edit starts with %+v", movedBy(inner))
			}
			inner.Move(100, 118, 400)
			inner.Move(100, 118, 400)
			if movedBy(inner) != (move{}) {
				t.Fatalf("two moves declare %+v", movedBy(inner))
			}
			return nil
		}); err != nil {
			return err
		}
		if got, want := movedBy(w), declared(118, 100, 400); got != want || w.Page()[118] != 7 {
			t.Fatalf("after a nested Edit the move is %+v, want %+v", got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Edit(a, func(w *page.Writer) error {
		if movedBy(w) != (move{}) {
			t.Fatalf("a move outlives its Edit: %+v", movedBy(w))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
}
