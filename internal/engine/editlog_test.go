package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
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
		before := page.NewBuf()
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
		after := before.Clone()
		mutate(rng, after)

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
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Read(id, func(buf page.Buf) error { img = buf.Clone(); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
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
	tx, _ := db.Begin()
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
	if err := tx.Commit(); err != nil {
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

		winner, _ := db.Begin()
		for i, at := range []int{10 + 18*7, 10 + 18*90} {
			if err := winner.Modify(ids[0], arrayInsert(at, end+18*i, rec)); err != nil {
				t.Fatal(err)
			}
		}
		want0 := images[0].Clone()
		arrayInsert(10+18*7, end, rec)(want0)
		arrayInsert(10+18*90, end+18, rec)(want0)
		if err := winner.Commit(); err != nil {
			t.Fatal(err)
		}

		loser, _ := db.Begin()
		for i, id := range ids[1:] {
			for j := 0; j < 3; j++ {
				if err := loser.Modify(id, arrayInsert(10+18*(5+11*i+j), end+18*j, rec)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := len(loser.undo[0].edits); n < 3 {
			t.Fatalf("a Modify touching header, array and tail logged %d edits", n)
		}
		if flushLoser {
			// A checkpoint would wait for the loser; push its pages out by
			// reading others.
			reader, _ := db.Begin()
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

	tx, _ := db.Begin()
	for j := 0; j < 3; j++ {
		if err := tx.Modify(ids[2], arrayInsert(10+18*(40+j), 10+18*(120+j), rec)); err != nil {
			t.Fatal(err)
		}
	}
	mark := db.Log().Next()
	if err := tx.Abort(); err != nil {
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
	tx, _ := db.Begin()
	mark := db.Log().Next()
	if _, err := tx.Alloc(page.TypeHeap); err != nil {
		t.Fatal(err)
	}
	if n := db.Log().Next() - mark; n > 64 {
		t.Fatalf("Alloc logged %d bytes, want at most 64", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkModify measures one Update changing eight bytes of a resident
// page on in-memory devices: clone, diff, record, append, commit force.
func BenchmarkModify(b *testing.B) {
	db, err := Open(Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 4, 4096),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<20),
		BufferPages: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Crash()
	tx, _ := db.Begin()
	id, err := tx.Alloc(page.TypeHeap)
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var v uint64
	for b.Loop() {
		tx, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		v++
		if err := tx.Modify(id, func(buf page.Buf) error {
			binary.LittleEndian.PutUint64(buf.Payload()[64:], v)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
