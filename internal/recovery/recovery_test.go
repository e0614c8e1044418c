package recovery

import (
	"bytes"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// fakePager is an in-memory page store for driving Run directly.
type fakePager struct {
	pages map[page.ID]page.Buf
	dirty map[page.ID]bool
	gets  int
}

func newFakePager() *fakePager {
	return &fakePager{pages: make(map[page.ID]page.Buf), dirty: make(map[page.ID]bool)}
}

func (p *fakePager) Get(id page.ID) (page.Buf, error) {
	p.gets++
	buf, ok := p.pages[id]
	if !ok {
		buf = page.NewBuf()
		buf.SetID(id)
		p.pages[id] = buf
	}
	return buf, nil
}

func (p *fakePager) Unpin(id page.ID) error     { return nil }
func (p *fakePager) MarkDirty(id page.ID) error { p.dirty[id] = true; return nil }

func newLog(t *testing.T) *wal.Manager {
	t.Helper()
	m, err := wal.Open(device.New("log", device.ProfileCheetah15K, 4096))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRedoAppliesMissingUpdates(t *testing.T) {
	log := newLog(t)
	pager := newFakePager()

	// Committed transaction 1 updates page 5 twice.
	log.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 5, Offset: 100, Before: []byte{0}, After: []byte{1}})
	log.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 5, Offset: 200, Before: []byte{0}, After: []byte{2}})
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 1})
	// Loser transaction 2 updates page 6 but never commits.
	log.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 2, PageID: 6, Offset: 300, Before: []byte{9}, After: []byte{7}})
	if err := log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	// Page 6 already contains the loser's change (it reached disk).
	buf, _ := pager.Get(6)
	buf[300] = 7
	buf.SetLSN(1 << 30)

	rep, err := Run(log, pager)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 2 || rep.RedoSkipped != 1 {
		t.Fatalf("redo applied/skipped = %d/%d, want 2/1", rep.RedoApplied, rep.RedoSkipped)
	}
	if rep.WinnerTxns != 1 || rep.LoserTxns != 1 || rep.UndoApplied != 1 {
		t.Fatalf("winners/losers/undo = %d/%d/%d", rep.WinnerTxns, rep.LoserTxns, rep.UndoApplied)
	}
	p5, _ := pager.Get(5)
	if p5[100] != 1 || p5[200] != 2 {
		t.Fatal("committed updates not redone")
	}
	p6, _ := pager.Get(6)
	if p6[300] != 9 {
		t.Fatalf("loser update not undone: byte = %d", p6[300])
	}
	if !pager.dirty[5] || !pager.dirty[6] {
		t.Fatal("recovered pages not marked dirty")
	}
	if rep.MaxPageID != 6 || rep.RecordsScanned != 4 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestRedoIsIdempotent(t *testing.T) {
	log := newLog(t)
	pager := newFakePager()
	// A leading system record keeps the update off LSN 0, which redo treats
	// as "page never written".
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 0})
	log.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 3, Offset: 64, Before: []byte{0}, After: []byte{5}})
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 1})
	log.ForceAll()

	if _, err := Run(log, pager); err != nil {
		t.Fatal(err)
	}
	firstGets := pager.gets
	rep, err := Run(log, pager)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 0 || rep.RedoSkipped != 1 {
		t.Fatalf("second run applied %d, skipped %d", rep.RedoApplied, rep.RedoSkipped)
	}
	if pager.gets <= firstGets {
		t.Fatal("second run did not scan the log")
	}
	buf, _ := pager.Get(3)
	if buf[64] != 5 {
		t.Fatal("value changed by repeated recovery")
	}
}

func TestFormatRedoAndCheckpointStart(t *testing.T) {
	log := newLog(t)
	pager := newFakePager()

	// Records before the checkpoint must not be replayed.
	log.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 2, Offset: 50, Before: []byte{0}, After: []byte{9}})
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 1})
	begin, _ := log.LogCheckpointBegin()
	if err := log.LogCheckpointEnd(begin); err != nil {
		t.Fatal(err)
	}

	log.Append(&wal.Record{Type: wal.TypeFormat, TxID: 2, PageID: 7, PageType: page.TypeHeap})
	log.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 2, PageID: 7, Offset: page.HeaderSize, Before: []byte{0}, After: []byte{0xEE}})
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 2})
	log.ForceAll()

	rep, err := Run(log, pager)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartLSN != begin {
		t.Fatalf("StartLSN = %d, want %d", rep.StartLSN, begin)
	}
	if _, touched := pager.dirty[2]; touched {
		t.Fatal("pre-checkpoint record replayed")
	}
	p7, _ := pager.Get(7)
	if p7.Payload()[0] != 0xEE || p7.Type() != page.TypeHeap || p7.ID() != 7 || p7.FreeSpace() == 0 {
		t.Fatal("page not formatted and updated")
	}
}

// shiftRecord logs, as transaction tx, the insertion of ins at offset off of
// the n-byte array that starts there on page id, and applies it to buf.
func shiftRecord(t *testing.T, log *wal.Manager, buf page.Buf, tx wal.TxID, id page.ID, off, n int, ins []byte) *wal.Record {
	t.Helper()
	k := len(ins)
	r := &wal.Record{Type: wal.TypeUpdate, TxID: tx, PageID: id, Edits: []wal.Edit{{
		Off: uint16(off), Len: uint16(n + k), Shift: int8(k),
		Before: append([]byte(nil), buf[off+n:off+n+k]...), After: ins,
	}}}
	if _, err := log.Append(r); err != nil {
		t.Fatal(err)
	}
	r.Edits[0].Apply(buf)
	return r
}

// TestShiftEditsRedoneAndUndone: edits that move bytes are redone for a
// winner and undone for a loser, against pages that never saw them and
// pages that did.
func TestShiftEditsRedoneAndUndone(t *testing.T) {
	log := newLog(t)
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 0}) // keep records off LSN 0

	array := func(id page.ID) page.Buf {
		buf := page.NewBuf()
		buf.SetID(id)
		for i := 0; i < 200; i++ {
			buf[100+i] = byte(i)
		}
		return buf
	}
	// What the pages looked like on disk at the crash: page 5 without the
	// winner's insert, page 6 with the loser's.
	old5, live6 := array(5), array(6)
	want5 := old5.Clone()
	shiftRecord(t, log, want5, 1, 5, 120, 180, []byte("WINNER"))
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 1})
	want6 := live6.Clone()
	r := shiftRecord(t, log, live6, 2, 6, 100, 200, []byte("LOSER!"))
	live6.SetLSN(r.LSN)
	log.ForceAll()

	pager := newFakePager()
	pager.pages[5], pager.pages[6] = old5, live6
	rep, err := Run(log, pager)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 1 || rep.RedoSkipped != 1 || rep.UndoApplied != 1 {
		t.Fatalf("report %+v", rep)
	}
	want5.SetLSN(old5.LSN())
	if !bytes.Equal(old5, want5) {
		t.Fatal("winner's shift not redone")
	}
	want6.SetLSN(live6.LSN())
	if !bytes.Equal(live6, want6) {
		t.Fatal("loser's shift not undone")
	}

	// Restart again before any checkpoint, from the same disk images plus
	// whatever was flushed: the compensation and abort records the first
	// run logged make the loser a finished transaction, so nothing is
	// undone twice.
	if err := log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	rep, err = Run(log, pager)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LoserTxns != 0 || rep.UndoApplied != 0 || rep.RedoApplied != 0 {
		t.Fatalf("second restart: %+v", rep)
	}
	if !bytes.Equal(live6, want6) {
		t.Fatal("second restart changed the undone page")
	}
}

// TestCompensatedUpdatesAreNotUndoneAgain: a crash in the middle of an
// abort leaves compensation records without an abort record.  Restart must
// undo only the updates they do not cover.
func TestCompensatedUpdatesAreNotUndoneAgain(t *testing.T) {
	log := newLog(t)
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 0})

	buf := page.NewBuf()
	buf.SetID(4)
	copy(buf[100:], "abcdefghijklmnop")
	start := buf.Clone()
	disk := buf.Clone() // nothing of the transaction reached the disk

	shiftRecord(t, log, buf, 9, 4, 100, 16, []byte("11"))
	second := shiftRecord(t, log, buf, 9, 4, 104, 14, []byte("22"))
	// The abort got as far as compensating the second update.
	wal.Invert(second.Edits)
	if _, err := log.Append(&wal.Record{Type: wal.TypeCompensation, TxID: 9, PageID: 4, Edits: second.Edits}); err != nil {
		t.Fatal(err)
	}
	log.ForceAll()

	pager := newFakePager()
	pager.pages[4] = disk
	rep, err := Run(log, pager)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 3 || rep.UndoApplied != 1 || rep.LoserTxns != 1 {
		t.Fatalf("report %+v", rep)
	}
	start.SetLSN(disk.LSN())
	if !bytes.Equal(disk, start) {
		t.Fatalf("page after restart %q, want %q", disk[100:120], start[100:120])
	}
}
