package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// applyAll redoes the edits on a copy of img.
func applyAll(img page.Buf, edits []wal.Edit) page.Buf {
	out := img.Clone()
	for i := range edits {
		edits[i].Apply(out)
	}
	return out
}

// diffEdits is the full-page differ with no move declared.
func diffEdits(before, after page.Buf) []wal.Edit { return diffMoved(before, after, move{}) }

// mutate changes a page the way the storage layers do: overwrites of a few
// bytes or a few hundred, and memmoves of an array by one "record".
func mutate(rng *rand.Rand, buf page.Buf) {
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(3) {
		case 0: // overwrite
			l := 1 + rng.Intn(12)
			if rng.Intn(4) == 0 {
				l = 1 + rng.Intn(600)
			}
			off := rng.Intn(page.Size - l)
			rng.Read(buf[off : off+l])
		case 1: // open a gap of k bytes in an array and fill it
			k := 1 + rng.Intn(maxShift+8)
			l := k + rng.Intn(2000)
			off := rng.Intn(page.Size - l - k)
			copy(buf[off+k:off+k+l], buf[off:off+l])
			rng.Read(buf[off : off+k])
		case 2: // close a gap of k bytes
			k := 1 + rng.Intn(maxShift+8)
			l := k + rng.Intn(2000)
			off := rng.Intn(page.Size - l - k)
			copy(buf[off:off+l], buf[off+k:off+k+l])
		}
	}
}

// mutatedPair is the generator of the differ tests: a page of one of three
// kinds (chosen by iter) and the same page after mutate.
func mutatedPair(rng *rand.Rand, iter int) (before, after page.Buf) {
	before = page.NewBuf()
	switch iter % 3 {
	case 0: // random bytes
		rng.Read(before)
	case 1: // mostly zeroes, like a young page
		rng.Read(before[:rng.Intn(400)])
	case 2: // an array of similar records, like a b-tree node
		for i := 0; i+18 <= page.Size; i += 18 {
			binary.LittleEndian.PutUint64(before[i:], uint64(1000+i/18))
			binary.LittleEndian.PutUint64(before[i+8:], uint64(7+i/900))
		}
	}
	after = before.Clone()
	mutate(rng, after)
	return before, after
}

// TestDiffEditsProperty: whatever was done to a page, the edits diffEdits
// finds — after a trip through the log — turn the before image into the
// after image and, inverted, the after image back into the before image.
func TestDiffEditsProperty(t *testing.T) {
	log, err := wal.Open(device.New("log", device.ProfileCheetah15K, 1<<15))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	rng := rand.New(rand.NewSource(1))
	type pair struct{ before, after page.Buf }
	var logged []pair
	for iter := 0; iter < 600; iter++ {
		before, after := mutatedPair(rng, iter)

		edits := diffEdits(before, after)
		if bytes.Equal(before, after) {
			if edits != nil {
				t.Fatalf("iter %d: edits for an unchanged page", iter)
			}
			continue
		}
		if got := applyAll(before, edits); !bytes.Equal(got, after) {
			t.Fatalf("iter %d: redo of the diff does not give the after image", iter)
		}
		if _, err := log.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 1, Edits: edits}); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		logged = append(logged, pair{before, after})
	}
	if err := log.ForceAll(); err != nil {
		t.Fatal(err)
	}

	i := 0
	err = log.Iterate(0, func(r *wal.Record) error {
		p := logged[i]
		if got := applyAll(p.before, r.Edits); !bytes.Equal(got, p.after) {
			t.Fatalf("record %d: redo of the decoded edits does not give the after image", i)
		}
		wal.Invert(r.Edits)
		if got := applyAll(p.after, r.Edits); !bytes.Equal(got, p.before) {
			t.Fatalf("record %d: undo of the decoded edits does not give the before image", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(logged) {
		t.Fatalf("iterated %d records, logged %d", i, len(logged))
	}
}

// leafLike fills a page with a b-tree-leaf-shaped array: a count, then n
// records of size bytes whose keys ascend.
func leafLike(n, size int) page.Buf {
	buf := page.NewBuf()
	buf.Init(3, page.TypeBTreeLeaf)
	p := buf.Payload()
	binary.LittleEndian.PutUint16(p, uint16(n))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(p[10+i*size:], uint64(5000+2*i))
		binary.LittleEndian.PutUint64(p[10+i*size+8:], uint64(40+i/30))
	}
	return buf
}

// TestDiffEditsLogsArrayInsertAsShift: inserting into and deleting from a
// sorted array is logged as one shift plus the count, a few dozen bytes,
// not as the half page that moved.
func TestDiffEditsLogsArrayInsertAsShift(t *testing.T) {
	for _, size := range []int{16, 18} {
		const n = 150
		before := leafLike(n, size)
		imageBytes := func(edits []wal.Edit) (total int, shifts []int8) {
			for _, e := range edits {
				total += len(e.Before) + len(e.After)
				if e.Shift != 0 {
					shifts = append(shifts, e.Shift)
				}
			}
			return total, shifts
		}

		// Insert key 5041 at position 21.
		after := before.Clone()
		p := after.Payload()
		at := 10 + 21*size
		copy(p[at+size:], p[at:10+n*size])
		binary.LittleEndian.PutUint64(p[at:], 5041)
		binary.LittleEndian.PutUint64(p[at+8:], 99)
		binary.LittleEndian.PutUint16(p, n+1)
		edits := diffEdits(before, after)
		total, shifts := imageBytes(edits)
		if len(shifts) != 1 || int(shifts[0]) != size || total > 2*size+4 {
			t.Fatalf("record size %d: insert logged as %d edits, shifts %v, %d image bytes", size, len(edits), shifts, total)
		}

		// Delete it again.
		edits = diffEdits(after, before)
		total, shifts = imageBytes(edits)
		if len(shifts) != 1 || int(shifts[0]) != -size || total > 2*size+4 {
			t.Fatalf("record size %d: delete logged as %d edits, shifts %v, %d image bytes", size, len(edits), shifts, total)
		}
	}
}

// arrayInsert opens a gap of len(rec) bytes at payload offset at of the
// array that ends at payload offset end, fills it with rec, and also
// touches the header and the tail of the page: one Modify, several edits.
func arrayInsert(at, end int, rec []byte) func(page.Buf) error {
	return func(buf page.Buf) error {
		p := buf.Payload()
		copy(p[at+len(rec):], p[at:end])
		copy(p[at:], rec)
		p[0]++
		copy(buf[page.Size-len(rec):], rec)
		return nil
	}
}

func pageImage(t *testing.T, db *DB, id page.ID) page.Buf {
	t.Helper()
	var img page.Buf
	if err := db.View(context.Background(), func(tx *Tx) error {
		return tx.Read(id, func(buf page.Buf) error { img = buf.Clone(); return nil })
	}); err != nil {
		t.Fatal(err)
	}
	// The LSN, the checksum and the cache stamp are not the transaction's.
	clear(img[8:20])
	img.SetCacheStamp(0)
	return img
}

// editLogScenario builds pages holding arrays, checkpoints, and returns the
// database, the pages and their images.
func editLogScenario(t *testing.T, r *testRig) (*DB, []page.ID, []page.Buf) {
	t.Helper()
	db := r.open(t, false)
	tx := begin(t, db)
	var ids []page.ID
	for i := 0; i < 4; i++ {
		id, err := tx.Alloc(page.TypeBTreeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := tx.Modify(id, func(buf page.Buf) error {
			copy(buf.Payload(), leafLike(120, 18).Payload())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var images []page.Buf
	for _, id := range ids {
		images = append(images, pageImage(t, db, id))
	}
	return db, ids, images
}

// TestCrashRedoesWinnerUndoesLoserMultiEdit: update records with several
// edits, shifts among them, are redone for the transaction that committed
// and undone for the one that did not — whether or not the loser's pages
// reached the persistent database before the crash.
func TestCrashRedoesWinnerUndoesLoserMultiEdit(t *testing.T) {
	for _, flushLoser := range []bool{false, true} {
		r := newRig(t, PolicyFaCEGSC)
		db, ids, images := editLogScenario(t, r)
		rec := []byte("0123456789abcdefgh")
		end := 10 + 120*18

		winner := begin(t, db)
		for i, at := range []int{10 + 18*7, 10 + 18*90} {
			if err := winner.Modify(ids[0], arrayInsert(at, end+18*i, rec)); err != nil {
				t.Fatal(err)
			}
		}
		want0 := images[0].Clone()
		arrayInsert(10+18*7, end, rec)(want0)
		arrayInsert(10+18*90, end+18, rec)(want0)
		if err := winner.commit(); err != nil {
			t.Fatal(err)
		}

		loser := begin(t, db)
		for i, id := range ids[1:] {
			for j := 0; j < 3; j++ {
				if err := loser.Modify(id, arrayInsert(10+18*(5+11*i+j), end+18*j, rec)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := len(loser.arena.undo[0].edits); n < 3 {
			t.Fatalf("a Modify touching header, array and tail logged %d edits", n)
		}
		if flushLoser {
			// A checkpoint would wait for the loser; push its pages out by
			// reading others.
			reader := begin(t, db)
			for i := 0; i < 2*r.cfg.BufferPages; i++ {
				id, err := reader.Alloc(page.TypeHeap)
				if err != nil {
					t.Fatal(err)
				}
				_ = readValue(t, reader, id)
			}
		}
		if err := db.Log().ForceAll(); err != nil {
			t.Fatal(err)
		}
		db.Crash()

		db2 := r.open(t, true)
		rep := db2.RecoveryReport()
		if rep.LoserTxns < 1 || rep.UndoApplied != 9 {
			t.Fatalf("flushLoser=%v: report %+v", flushLoser, rep.Report)
		}
		if got := pageImage(t, db2, ids[0]); !bytes.Equal(got, want0) {
			t.Fatalf("flushLoser=%v: winner's inserts not redone", flushLoser)
		}
		for i, id := range ids[1:] {
			if got := pageImage(t, db2, id); !bytes.Equal(got, images[1+i]) {
				t.Fatalf("flushLoser=%v: loser's inserts on page %d not undone", flushLoser, id)
			}
		}
		db2.Close()
	}
}

// TestAbortThenCrashReplaysCompensation: an abort logs redo-only
// compensation records; after a crash they are replayed, nothing is undone
// a second time, and the pages are as before the transaction.
func TestAbortThenCrashReplaysCompensation(t *testing.T) {
	r := newRig(t, PolicyFaCEGSC)
	db, ids, images := editLogScenario(t, r)
	rec := []byte("0123456789abcdefgh")

	tx := begin(t, db)
	for j := 0; j < 3; j++ {
		if err := tx.Modify(ids[2], arrayInsert(10+18*(40+j), 10+18*(120+j), rec)); err != nil {
			t.Fatal(err)
		}
	}
	mark := db.Log().Next()
	if err := tx.abort(); err != nil {
		t.Fatal(err)
	}
	if got := pageImage(t, db, ids[2]); !bytes.Equal(got, images[2]) {
		t.Fatal("abort did not restore the page")
	}
	// Three compensation records without before images, and the abort record.
	if n := db.Log().Next() - mark; n > 3*(25+2+3*(wal.EditHeaderSize+18))+25 {
		t.Fatalf("abort logged %d bytes", n)
	}
	if err := db.Log().ForceAll(); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	db2 := r.open(t, true)
	defer db2.Close()
	rep := db2.RecoveryReport()
	if rep.LoserTxns != 0 || rep.UndoApplied != 0 || rep.RedoApplied != 6 {
		t.Fatalf("report %+v", rep.Report)
	}
	if got := pageImage(t, db2, ids[2]); !bytes.Equal(got, images[2]) {
		t.Fatal("page differs after replaying update and compensation records")
	}
}

// TestOldFormatLogIsRefused: a log device initialised by the single-range
// record format is not silently reinitialised or misread.
func TestOldFormatLogIsRefused(t *testing.T) {
	r := newRig(t, PolicyNone)
	ctrl := make([]byte, device.BlockSize)
	binary.LittleEndian.PutUint32(ctrl, 0xFACE10C0)
	if err := r.log.WriteAt(0, ctrl); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(r.cfg); !errors.Is(err, wal.ErrOldFormat) {
		t.Fatalf("Open on an old-format log: %v, want wal.ErrOldFormat", err)
	}
}

// TestAllocLogVolume: allocating a page logs its id and type, not its image.
func TestAllocLogVolume(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	defer db.Close()
	tx := begin(t, db)
	mark := db.Log().Next()
	if _, err := tx.Alloc(page.TypeHeap); err != nil {
		t.Fatal(err)
	}
	if n := db.Log().Next() - mark; n > 64 {
		t.Fatalf("Alloc logged %d bytes, want at most 64", n)
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkModify measures one Update of a resident page on in-memory
// devices — saved bytes, diff, record, append, commit force — for two
// changes: eight bytes, and a B-tree leaf insert.  Each is made through an
// Edit's Writer, the leaf insert declaring its array shift with
// Writer.Move, and through Modify, which copies and compares the whole page
// and finds the shift itself.
func BenchmarkModify(b *testing.B) {
	var v uint64
	b.Run("8-bytes/edit", func(b *testing.B) {
		benchModify(b, func(tx *Tx, id page.ID) error {
			return tx.Edit(id, func(w *page.Writer) error {
				v++
				w.PutUint64(page.HeaderSize+64, v)
				return nil
			})
		})
	})
	b.Run("8-bytes/modify", func(b *testing.B) {
		benchModify(b, func(tx *Tx, id page.ID) error {
			return tx.Modify(id, func(buf page.Buf) error {
				v++
				binary.LittleEndian.PutUint64(buf.Payload()[64:], v)
				return nil
			})
		})
	})
	b.Run("leaf-insert/edit", func(b *testing.B) { benchModify(b, leafInsertDelete(true)) })
	b.Run("leaf-insert/modify", func(b *testing.B) { benchModify(b, leafInsertDelete(false)) })
}

// leafInsertDelete returns a change of a leafLike(150, 18) page that
// inserts an entry at position 40 and, on the next call, deletes it again,
// so that the leaf keeps its size; either moves the 110 entries behind it
// by one, through an Edit with Writer.Move when edit is set and through
// Modify with copy otherwise.
func leafInsertDelete(edit bool) func(*Tx, page.ID) error {
	const at, end = page.HeaderSize + 10 + 40*18, page.HeaderSize + 10 + 150*18
	insert := true
	return func(tx *Tx, id page.ID) error {
		dst, src := at+18, at
		if !insert {
			dst, src = src, dst
		}
		count := byte(150)
		if insert {
			count++
		}
		defer func() { insert = !insert }()
		if edit {
			return tx.Edit(id, func(w *page.Writer) error {
				w.Move(dst, src, end-at)
				if insert {
					w.PutUint64(at, 5079)
				}
				w.Bytes(page.HeaderSize, 1)[0] = count
				return nil
			})
		}
		return tx.Modify(id, func(buf page.Buf) error {
			copy(buf[dst:dst+end-at], buf[src:src+end-at])
			if insert {
				binary.LittleEndian.PutUint64(buf[at:], 5079)
			}
			buf[page.HeaderSize] = count
			return nil
		})
	}
}

// benchModify times transactions of one change, fn, of a resident page
// that starts as leafLike(150, 18).
func benchModify(b *testing.B, fn func(*Tx, page.ID) error) {
	db, err := Open(Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 4, 4096),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<20),
		BufferPages: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Crash()
	tx := begin(b, db)
	id, err := tx.Alloc(page.TypeBTreeLeaf)
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Modify(id, func(buf page.Buf) error {
		copy(buf.Payload(), leafLike(150, 18).Payload())
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if err := tx.commit(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := db.Update(context.Background(), func(tx *Tx) error { return fn(tx, id) }); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the differ's oracle -------------------------------------------------

// diffEditsRef is the differ as it was before it learned to compare eight
// bytes at a time: one byte per step, everywhere.  It is the reference the
// tests hold diffEdits to — the two must return identical edit lists, since
// the lists are what the log holds — and is otherwise unused.
func diffEditsRef(before, after page.Buf) []wal.Edit {
	var stack [16]span
	spans := stack[:0]
	for hi := page.Size; hi > 0; {
		if before[hi-1] == after[hi-1] {
			hi--
			continue
		}
		lo := regionStartRef(before, after, hi, maxShift)
		spans = appendRegionRef(spans, before, after, lo, hi)
		hi = lo
	}
	if len(spans) == 0 {
		return nil
	}
	slices.Reverse(spans)

	total := 0
	for _, s := range spans {
		total += 2 * s.imageLen()
	}
	images := make([]byte, 0, total)
	edits := make([]wal.Edit, len(spans))
	for i, s := range spans {
		n := s.imageLen()
		// A write keeps the whole region; a shift towards higher offsets
		// loses the region's last n bytes and gains n at its start, one
		// towards lower offsets the reverse.
		out, in := s.lo, s.lo
		switch {
		case s.shift > 0:
			out = s.hi - n
		case s.shift < 0:
			in = s.hi - n
		}
		images = append(images, before[out:out+n]...)
		images = append(images, after[in:in+n]...)
		img := images[len(images)-2*n:]
		edits[i] = wal.Edit{
			Off: uint16(s.lo), Len: uint16(s.hi - s.lo), Shift: int8(s.shift),
			Before: img[:n:n], After: img[n:],
		}
	}
	return edits
}
func regionStartRef(before, after page.Buf, hi, gap int) int {
	lo := hi - 1
	for i := lo - 1; i >= 0 && lo-i <= gap+1; i-- {
		if before[i] != after[i] {
			lo = i
		}
	}
	return lo
}
func appendRegionRef(spans []span, before, after page.Buf, lo, hi int) []span {
	for hi-lo >= minShiftRegion {
		s, ok := tailShiftRef(before, after, lo, hi)
		if !ok {
			break
		}
		spans = append(spans, s)
		for hi = s.lo; hi > lo && before[hi-1] == after[hi-1]; hi-- {
		}
	}
	for hi > lo {
		start := regionStartRef(before, after, hi, maxWriteGap)
		spans = append(spans, span{lo: start, hi: hi})
		for hi = start; hi > lo && before[hi-1] == after[hi-1]; hi-- {
		}
	}
	return spans
}
func tailShiftRef(before, after page.Buf, lo, hi int) (span, bool) {
	best, moved := span{hi: hi}, 0
	for k := 1; k <= maxShift && k < hi-lo; k++ {
		// i runs over the unshifted position of each moved byte.
		i := hi - k
		for i > lo && after[i-1+k] == before[i-1] {
			i--
		}
		if hi-k-i > moved {
			moved, best.lo, best.shift = hi-k-i, i, k
		}
		i = hi - k
		for i > lo && after[i-1] == before[i-1+k] {
			i--
		}
		if hi-k-i > moved {
			moved, best.lo, best.shift = hi-k-i, i, -k
		}
	}
	if moved == 0 {
		return span{}, false
	}
	// The shift costs a header and two images of |k| bytes.  As writes the
	// same bytes cost two images of every changed byte, possibly appended
	// to the write in front of them at no further header.
	changed := 0
	for i := best.lo; i < hi; i++ {
		if before[i] != after[i] {
			changed++
		}
	}
	if wal.EditHeaderSize+2*best.imageLen() >= 2*changed {
		return span{}, false
	}
	return best, true
}

// checkAgainstRef holds diffEdits to the reference on one pair of images:
// the same edit list, and one that turns before into after.
func checkAgainstRef(t *testing.T, before, after page.Buf) {
	t.Helper()
	got, want := diffEdits(before, after), diffEditsRef(before, after)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diffEdits differs from the reference:\n got %s\nwant %s", editShapes(got), editShapes(want))
	}
	if applied := applyAll(before, got); !bytes.Equal(applied, after) {
		t.Fatalf("redo of %s does not give the after image", editShapes(got))
	}
}

// editShapes prints the edits without their images.
func editShapes(edits []wal.Edit) string {
	var sb strings.Builder
	for _, e := range edits {
		fmt.Fprintf(&sb, "[%d+%d shift %d]", e.Off, e.Len, e.Shift)
	}
	return sb.String()
}

// TestDiffEditsMatchesReference: over the property test's generators and
// over the places a word loop goes wrong — the page's first and last bytes,
// a change across a word boundary, one inside the LSN field, two changes a
// gap of exactly maxWriteGap and one more apart, and arrays moved by every
// distance up to maxShift that end where the page does.
func TestDiffEditsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 3000; iter++ {
		before, after := mutatedPair(rng, iter)
		checkAgainstRef(t, before, after)
	}

	random := func() page.Buf {
		b := page.NewBuf()
		rng.Read(b)
		return b
	}
	flip := func(name string, offs ...int) {
		t.Run(name, func(t *testing.T) {
			for _, before := range []page.Buf{page.NewBuf(), random(), leafLike(150, 18)} {
				after := before.Clone()
				for _, off := range offs {
					after[off] ^= 0x5A
				}
				checkAgainstRef(t, before, after)
			}
		})
	}
	flip("unchanged")
	flip("first byte", 0)
	flip("last byte", page.Size-1)
	flip("first and last byte", 0, page.Size-1)
	flip("across a word boundary", 1023, 1024)
	flip("across the last word boundary", page.Size-9, page.Size-8)
	flip("inside the LSN field", 8, 11, 15)
	for _, at := range []int{0, 1, 7, 8, 9, 2048, 2051, page.Size - 16} {
		// Two changed bytes with maxWriteGap-1, maxWriteGap and
		// maxWriteGap+1 unchanged ones between them, and the same around
		// maxShift, the gap that joins regions.
		for _, gap := range []int{maxWriteGap - 1, maxWriteGap, maxWriteGap + 1, maxShift - 1, maxShift, maxShift + 1} {
			if at+gap+1 < page.Size {
				flip(fmt.Sprintf("gap of %d at %d", gap, at), at, at+gap+1)
			}
		}
	}
	for off := 0; off < 24; off++ {
		flip(fmt.Sprintf("every byte of a word run at %d", off), off, off+1, off+2, off+3, off+4, off+5, off+6, off+7, off+8)
	}

	t.Run("array shifts ending at the page end", func(t *testing.T) {
		for k := 1; k <= maxShift; k++ {
			for _, start := range []int{page.HeaderSize, 1000, 1003, page.Size - 200} {
				if start+2*k >= page.Size {
					continue
				}
				before := random()
				up := before.Clone()
				copy(up[start+k:], before[start:page.Size-k])
				rng.Read(up[start : start+k])
				checkAgainstRef(t, before, up)
				down := before.Clone()
				copy(down[start:], before[start+k:])
				rng.Read(down[page.Size-k:])
				checkAgainstRef(t, before, down)
			}
		}
	})
}

// fuzzPair builds two page images from fuzz input: seed repeated to fill
// the before image, and script read as five-byte commands (kind, offset,
// length, value) that overwrite, open a gap in, or close a gap in the after
// image.
func fuzzPair(seed, script []byte) (before, after page.Buf) {
	before = page.NewBuf()
	for i := 0; len(seed) > 0 && i < page.Size; i += len(seed) {
		copy(before[i:], seed)
	}
	after = before.Clone()
	runScript(after, script)
	return before, after
}

// runScript applies fuzzPair's five-byte commands to after.
func runScript(after page.Buf, script []byte) {
	for ; len(script) >= 5; script = script[5:] {
		off := int(binary.LittleEndian.Uint16(script[1:])) % page.Size
		n := 1 + int(script[3])
		if script[0]&0x80 != 0 {
			n *= 8
		}
		n = min(n, page.Size-off)
		switch script[0] % 3 {
		case 0:
			for i := off; i < off+n; i++ {
				after[i] = script[4] + byte(i)
			}
		case 1:
			k := min(1+int(script[4])%(maxShift+8), n)
			copy(after[off+k:off+n], after[off:off+n-k])
		case 2:
			k := min(1+int(script[4])%(maxShift+8), n)
			copy(after[off:off+n-k], after[off+k:off+n])
		}
	}
}

// FuzzDiffEdits: whatever the two images, diffEdits returns what the
// reference returns, and the edits turn the one image into the other.  The
// seed corpus is in testdata/fuzz/FuzzDiffEdits.
func FuzzDiffEdits(f *testing.F) {
	f.Add([]byte{}, []byte{0, 0, 0, 0, 1})
	f.Add([]byte("0123456789abcdefg"), []byte{1, 0x00, 0x08, 200, 17, 0x80, 0xF0, 0x0F, 3, 9})
	f.Fuzz(func(t *testing.T, seed, script []byte) {
		before, after := fuzzPair(seed, script)
		checkAgainstRef(t, before, after)
	})
}

// BenchmarkDiffEdits prices the differ alone on the four shapes of change
// it meets: a few bytes (a row update), an array moved by one record (an
// index insert, found by the differ or declared with Move), a page
// rewritten, and nothing at all.
func BenchmarkDiffEdits(b *testing.B) {
	before := leafLike(150, 18)
	sparse := before.Clone()
	binary.LittleEndian.PutUint64(sparse.Payload()[900:], 77)
	shift := before.Clone()
	if err := arrayInsert(10+40*18, 10+150*18, make([]byte, 18))(shift); err != nil {
		b.Fatal(err)
	}
	moved := declared(page.HeaderSize+10+41*18, page.HeaderSize+10+40*18, 110*18)
	rewrite := page.NewBuf()
	rand.New(rand.NewSource(3)).Read(rewrite)
	for _, c := range []struct {
		name  string
		after page.Buf
		moved move
	}{
		{"sparse", sparse, move{}},
		{"shift", shift, move{}},
		{"declared-shift", shift, moved},
		{"rewrite", rewrite, move{}},
		{"unchanged", before.Clone(), move{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				editsSink = diffMoved(before, c.after, c.moved)
			}
		})
	}
}

var editsSink []wal.Edit
