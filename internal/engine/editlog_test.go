package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

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

// arrayInsert opens a gap of len(rec) bytes at payload offset at of the
// array that ends at payload offset end, fills it with rec, and also
// touches the header and the tail of the page, in one Modify.
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

// arrayInsertEdit makes arrayInsert's change through an Edit's Writer, the
// way the storage layers do: a move, a fill of its gap and two writes.
func arrayInsertEdit(at, end int, rec []byte) func(*page.Writer) error {
	return func(w *page.Writer) error {
		at, end := page.HeaderSize+at, page.HeaderSize+end
		w.Move(at+len(rec), at, end-at)
		copy(w.Bytes(at, len(rec)), rec)
		w.Bytes(page.HeaderSize, 1)[0]++
		copy(w.Bytes(page.Size-len(rec), len(rec)), rec)
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

// TestCrashRedoesWinnerUndoesLoserMultiEdit: update records of Modify calls
// that move an array and change the header and the tail are redone for the transaction that committed
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
		if n := len(loser.arena.undo); n != 9 {
			t.Fatalf("nine Modify calls left %d records to undo", n)
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
		if err := tx.Edit(ids[2], arrayInsertEdit(10+18*(40+j), 10+18*(120+j), rec)); err != nil {
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
	// Three compensation records, each a move back, the bytes it lost and
	// the tail and the count put back, and the abort record.
	if n := db.Log().Next() - mark; n > 3*(25+7+3*page.WriteHeaderSize+18+18+1)+25 {
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
// record format, by the byte-diff edit lists the operation lists replaced,
// or by format records without a new page's contents, is not silently
// reinitialised or misread.
func TestOldFormatLogIsRefused(t *testing.T) {
	for _, magic := range []uint32{0xFACE10C0, 0xFACE10C2, 0xFACE10C3} {
		r := newRig(t, PolicyNone)
		ctrl := make([]byte, device.BlockSize)
		binary.LittleEndian.PutUint32(ctrl, magic)
		if err := r.log.WriteAt(0, ctrl); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(r.cfg); !errors.Is(err, wal.ErrOldFormat) {
			t.Fatalf("Open on a log of magic %#x: %v, want wal.ErrOldFormat", magic, err)
		}
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

// TestAllocEditIsOneRedoOnlyRecord: AllocEdit logs a new page and its
// first contents as one format record, which a crash redoes and a rollback
// leaves alone; the transaction keeps the page's lock; and a fill that
// fails leaves the page empty, logged as Alloc logs it.
func TestAllocEditIsOneRedoOnlyRecord(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	fill := func(w *page.Writer) error {
		if _, err := w.Insert([]byte("first contents")); err != nil {
			return err
		}
		copy(w.Bytes(2000, 8), "trailer!")
		return nil
	}
	tx := begin(t, db)
	appends := db.Snapshot().Wal.Appends
	id, err := tx.AllocEdit(page.TypeHeap, fill)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Snapshot().Wal.Appends - appends; n != 1 {
		t.Fatalf("AllocEdit logged %d records, want 1", n)
	}
	if tx.Unlock(id) {
		t.Fatal("Unlock gave back the lock on a page the transaction created")
	}
	failed := errors.New("fill failed")
	mark := db.Log().Next()
	if _, err := tx.AllocEdit(page.TypeHeap, func(w *page.Writer) error {
		fill(w)
		return failed
	}); !errors.Is(err, failed) {
		t.Fatalf("a failing fill: %v", err)
	}
	if n := db.Log().Next() - mark; n > 64 {
		t.Fatalf("a failing fill logged %d bytes, want at most 64", n)
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	want := pageImage(t, db, id)
	if got, err := want.Record(0); err != nil || string(got) != "first contents" {
		t.Fatalf("the new page holds %q, %v", got, err)
	}
	empty := pageImage(t, db, id+1)
	if empty.SlotCount() != 0 || string(empty[2000:2008]) != string(make([]byte, 8)) {
		t.Fatal("the page of the failing fill is not empty")
	}

	// A rolled-back transaction's new page keeps its contents: nothing
	// undoes a format record.
	tx = begin(t, db)
	rolled, err := tx.AllocEdit(page.TypeHeap, fill)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.abort(); err != nil {
		t.Fatal(err)
	}
	if err := db.Log().ForceAll(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	db2 := r.open(t, true)
	defer db2.Close()
	for _, id := range []page.ID{id, rolled} {
		if got := pageImage(t, db2, id); !bytes.Equal(got[page.HeaderSize:], want[page.HeaderSize:]) {
			t.Fatalf("page %d after restart is not the page its format record made", id)
		}
	}
}

// BenchmarkModify measures one Update of a resident page on in-memory
// devices — operations, record, append, commit force — for two changes:
// eight bytes, and a B-tree leaf insert.  Each is made through an Edit's
// Writer, the leaf insert moving its array with Writer.Move, and through
// Modify, which saves and compares the whole page and logs the moved bytes
// as they are.
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
