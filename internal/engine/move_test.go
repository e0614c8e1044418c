package engine

import (
	"bytes"
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

// declared is the declaration of one move of n bytes from src to dst.
func declared(dst, src, n int) declaredMove {
	return declaredMove{dst: uint16(dst), src: uint16(src), n: uint16(n), moves: 1}
}

// randomMove returns a move by 1 to 127 bytes either way, of 0 bytes up to
// as many as reach the page end.
func randomMove(rng *rand.Rand) declaredMove {
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

// scribble overwrites one to eight bytes at a random offset in [lo, hi).
func scribble(rng *rand.Rand, buf page.Buf, lo, hi int) {
	if hi <= lo {
		return
	}
	off := lo + rng.Intn(hi-lo)
	rng.Read(buf[off:min(hi, off+1+rng.Intn(8))])
}

// movedPair is a page of one of mutatedPair's kinds and a copy changed the
// way a B-tree callback changes a node: perhaps a write, one move, and
// writes below, inside (where the gap opened) and above the moved region.
// With clobber, one later write lands on the moved bytes, so that the
// declared move no longer describes the page.
func movedPair(rng *rand.Rand, iter int, clobber bool) (before, after page.Buf, m declaredMove) {
	before, _ = mutatedPair(rng, iter)
	after = before.Clone()
	m = randomMove(rng)
	if rng.Intn(4) == 0 {
		scribble(rng, after, 0, page.Size)
	}
	dst, src, n := int(m.dst), int(m.src), int(m.n)
	copy(after[dst:dst+n], after[src:src+n])
	lo, hi := min(src, dst), max(src, dst)+n
	gained := lo // the gap the move opened: its first k bytes, or its last
	if dst < src {
		gained = dst + n
	}
	for range rng.Intn(3) {
		switch rng.Intn(3) {
		case 0:
			scribble(rng, after, 0, lo)
		case 1:
			scribble(rng, after, gained, gained+max(dst-src, src-dst))
		case 2:
			scribble(rng, after, hi, page.Size)
		}
	}
	if clobber && n > 0 {
		after[dst+rng.Intn(n)] ^= byte(1 + rng.Intn(255))
	}
	return before, after, m
}

// TestDiffMovedRoundTrip: whatever a callback did around its declared move,
// the edits diffMoved returns turn before into after and back, cost at most
// one edit header more than diffEdits' — which is what they are when the
// declaration does not hold — and a declaration the callback's later writes
// broke is refused.
func TestDiffMovedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	used, saved := 0, 0
	const iters = 4000
	for iter := range iters {
		clobber := iter%4 == 3
		before, after, m := movedPair(rng, iter, clobber)
		got, plain := diffMoved(before, after, m), diffEdits(before, after)
		checkRoundTrip(t, before, after, got)
		_, ok := m.shift(before, after)
		switch {
		case ok && clobber:
			t.Fatalf("iter %d: a move whose bytes were overwritten was taken as a shift", iter)
		case ok:
			used++
		case !reflect.DeepEqual(got, plain):
			t.Fatalf("iter %d: refused declaration, yet %s differs from diffEdits' %s", iter, editShapes(got), editShapes(plain))
		}
		g, p := encodedSize(got), encodedSize(plain)
		if g > p+wal.EditHeaderSize {
			t.Fatalf("iter %d: move %+v logged as %d bytes %s, diffEdits %d bytes %s",
				iter, m, g, editShapes(got), p, editShapes(plain))
		}
		saved += p - g
	}
	t.Logf("%d of %d declarations used, %d bytes of log saved in all", used, iters, saved)
	if used < iters/4 {
		t.Fatalf("only %d of %d declarations were used", used, iters)
	}
}

// TestDiffMovedIgnoresOtherDeclarations: no move, several moves, a move
// by nothing, by more than an edit holds or of too few bytes leave the
// differ to find what changed.
func TestDiffMovedIgnoresOtherDeclarations(t *testing.T) {
	before := leafLike(150, 18)
	after := before.Clone()
	at := page.HeaderSize + 10 + 40*18
	copy(after[at+18:], before[at:page.HeaderSize+10+150*18])
	several := declared(at+18, at, 110*18)
	several.moves = 2
	for _, m := range []declaredMove{
		{},
		several,
		declared(at, at, 110*18),
		declared(at+128, at, 100),
		declared(at+18, at, minShiftRegion-1),
	} {
		if _, ok := m.shift(before, after); ok {
			t.Fatalf("declaration %+v was used", m)
		}
		if got, want := diffMoved(before, after, m), diffEdits(before, after); !reflect.DeepEqual(got, want) {
			t.Fatalf("declaration %+v: %s, diffEdits %s", m, editShapes(got), editShapes(want))
		}
	}
}

// FuzzDiffMoved: whatever the page and whatever was written before and
// after a move, the edits diffMoved returns for it turn the one image into
// the other and back.  The page and the writes are fuzzPair's; the move is
// by k bytes (one of the k that no edit holds, 0 and -128, included) at
// offset at, of n bytes.  The seed corpus is in testdata/fuzz/FuzzDiffMoved.
//
// Unlike TestDiffMovedRoundTrip it does not bound the log volume: fuzzPair
// repeats its seed, and a page of period p moved by k is also moved by
// k mod p, which the differ finds and a declaration does not say.  B-tree
// nodes are not periodic; their empty tails, moved, change nothing and are
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

// TestMoveDeclaresOnItsPageOnly: Move copies wherever it is called, and
// declares only on the page of the Modify whose callback is running — not
// on another buffer, not outside a callback — with a nested Modify's
// declarations kept apart from its caller's.
func TestMoveDeclaresOnItsPageOnly(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	defer db.Close()
	tx, _ := db.Begin()
	a, _ := tx.Alloc(page.TypeHeap)
	b, _ := tx.Alloc(page.TypeHeap)

	other := page.NewBuf()
	other[100] = 7
	tx.Move(other, 200, 100, 50)
	if other[200] != 7 || tx.moved != (declaredMove{}) {
		t.Fatalf("Move outside a callback: copied %d, declared %+v", other[200], tx.moved)
	}
	if err := tx.Modify(a, func(buf page.Buf) error {
		tx.Move(other, 300, 100, 50)
		if other[300] != 7 || tx.moved.moves != 0 {
			t.Fatalf("Move on another buffer: copied %d, declared %+v", other[300], tx.moved)
		}
		tx.Move(buf, 118, 100, 400)
		if err := tx.Modify(b, func(inner page.Buf) error {
			if tx.moved.moves != 0 {
				t.Fatalf("nested Modify starts with %+v", tx.moved)
			}
			tx.Move(inner, 100, 118, 400)
			tx.Move(inner, 100, 118, 400)
			return nil
		}); err != nil {
			return err
		}
		want := declared(118, 100, 400)
		want.page = &buf[0]
		if tx.moved != want {
			t.Fatalf("after a nested Modify the declaration is %+v", tx.moved)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tx.moved != (declaredMove{}) {
		t.Fatalf("declaration %+v outlives its Modify", tx.moved)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
