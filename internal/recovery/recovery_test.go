package recovery

import (
	"bytes"
	"math/rand/v2"
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

func (p *fakePager) Locate(id page.ID) (Copy, page.LSN) { return OnDisk, 0 }

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
// the n-byte array that starts there on page id, which it makes in buf: a
// move of the array and a fill of the gap.
func shiftRecord(t *testing.T, log *wal.Manager, buf page.Buf, tx wal.TxID, id page.ID, off, n int, ins []byte) *wal.Record {
	t.Helper()
	w := page.NewWriter(nil)
	w.Reset(buf)
	w.Move(off+len(ins), off, n)
	copy(w.Bytes(off, len(ins)), ins)
	r := &wal.Record{Type: wal.TypeUpdate, TxID: tx, PageID: id, Ops: bytes.Clone(w.Ops())}
	if _, err := log.Append(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestShiftEditsRedoneAndUndone: operations that move bytes are redone for
// a winner and undone for a loser, against pages that never saw them and
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
	clr := page.NewWriter(nil).Undo(buf, second.Ops)
	if _, err := log.Append(&wal.Record{Type: wal.TypeCompensation, TxID: 9, PageID: 4, Ops: clr}); err != nil {
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

// hintPager is a fakePager whose Locate knows the pageLSN of the pages
// listed in known, the way the flash cache directory knows the pages it
// holds, and cannot tell that of the pages listed in held, the way a
// cache without LSNs holds them; every other page is on disk.  reads
// counts Gets per page.
type hintPager struct {
	*fakePager
	known map[page.ID]page.LSN
	held  map[page.ID]bool
	reads map[page.ID]int
}

func newHintPager() *hintPager {
	return &hintPager{fakePager: newFakePager(), known: make(map[page.ID]page.LSN),
		held: make(map[page.ID]bool), reads: make(map[page.ID]int)}
}

func (p *hintPager) Get(id page.ID) (page.Buf, error) {
	p.reads[id]++
	return p.fakePager.Get(id)
}

func (p *hintPager) Locate(id page.ID) (Copy, page.LSN) {
	if lsn, ok := p.known[id]; ok {
		return Cached, lsn
	}
	if p.held[id] {
		return Unknown, 0
	}
	return OnDisk, 0
}

// TestRedoTrustsNoteOnlyForPagesOnDisk: page 5's last page-written note
// covers its only change.  On disk, the note lets redo skip it unread.
// Held by a cache whose copy is older, or by one that keeps no LSNs, the
// note says nothing about the copy a read returns, so redo reads the page
// and reapplies the change.
func TestRedoTrustsNoteOnlyForPagesOnDisk(t *testing.T) {
	for _, where := range []Copy{OnDisk, Cached, Unknown} {
		log := newLog(t)
		log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 0}) // keep records off LSN 0
		older, _ := log.Append(&wal.Record{Type: wal.TypeFormat, TxID: 0, PageID: 5, PageType: page.TypeHeap})
		change := &wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 5, Offset: 100, Before: []byte{0}, After: []byte{7}}
		log.Append(change)
		log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 1})
		log.Append(&wal.Record{Type: wal.TypePageWritten, Written: []wal.PageWrite{{ID: 9, LSN: change.LSN}, {ID: 5, LSN: change.LSN}}})
		log.ForceAll()

		pager := newHintPager()
		buf, _ := pager.fakePager.Get(5)
		switch where {
		case OnDisk:
			buf[100] = 7
			buf.SetLSN(change.LSN)
		case Cached:
			buf.SetLSN(older)
			pager.known[5] = older
		case Unknown:
			buf.SetLSN(older)
			pager.held[5] = true
		}
		rep, err := Run(log, pager)
		if err != nil {
			t.Fatal(err)
		}
		wantReads := 1
		if where == OnDisk {
			wantReads = 0
		}
		if buf[100] != 7 || pager.reads[5] != wantReads || rep.PagesSkipped != 1-wantReads {
			t.Fatalf("copy %d: byte %d, %d reads, report %+v; want 7, %d reads", where, buf[100], pager.reads[5], rep, wantReads)
		}
	}
}

// TestRedoReadsPageNewerThanItsKnownCopy: the pager knows a copy of page 5
// that holds the page's first logged change but not its second, which is
// only in the log.  Redo must read the page and reapply the second change;
// page 6, whose known copy holds its only change, is not read.
func TestRedoReadsPageNewerThanItsKnownCopy(t *testing.T) {
	log := newLog(t)
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 0}) // keep records off LSN 0
	first := &wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 5, Offset: 100, Before: []byte{0}, After: []byte{1}}
	log.Append(first)
	only := &wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 6, Offset: 100, Before: []byte{0}, After: []byte{3}}
	log.Append(only)
	log.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 5, Offset: 100, Before: []byte{1}, After: []byte{2}})
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 1})
	log.ForceAll()

	pager := newHintPager()
	older, _ := pager.fakePager.Get(5)
	older[100] = 1
	older.SetLSN(first.LSN)
	pager.known[5] = first.LSN
	current, _ := pager.fakePager.Get(6)
	current[100] = 3
	current.SetLSN(only.LSN)
	pager.known[6] = only.LSN

	rep, err := Run(log, pager)
	if err != nil {
		t.Fatal(err)
	}
	if older[100] != 2 {
		t.Fatalf("page 5 byte = %d, want 2: the change only the log holds was not redone", older[100])
	}
	if pager.reads[5] != 1 || pager.reads[6] != 0 {
		t.Fatalf("reads of pages 5/6 = %d/%d, want 1/0", pager.reads[5], pager.reads[6])
	}
	if rep.RedoApplied != 1 || rep.RedoSkipped != 2 || rep.PagesRedone != 1 || rep.PagesSkipped != 1 {
		t.Fatalf("report %+v", rep)
	}
}

// TestPerPageRedoMatchesLogOrderReplay drives Run over seeded logs of
// interleaved format, update and compensation records on many pages, with
// committed, aborted and loser transactions (one of them half rolled back)
// and a persistent database holding each page at some point of its
// history.  The pages Run leaves must equal, byte for byte, those of a
// replay of the whole log (the compensation records Run appended
// included) in LSN order, one record at a time, from the same persistent
// pages.
func TestPerPageRedoMatchesLogOrderReplay(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		h := randomHistory(t, seed)
		log := h.log
		persistent := h.persistent()
		pager := newHintPager()
		for id, buf := range persistent {
			pager.pages[id] = buf.Clone()
			if _, cached := h.flash[id]; !cached {
				continue
			}
			// The flash cache records the pageLSN of even pages and of
			// the two the history placed there at its end; of the others
			// it keeps none, the way LC and write-through keep none.
			if id%2 == 0 || id == h.currentFlash || id == h.noteOverOlderFlash {
				pager.known[id] = buf.LSN()
			} else {
				pager.held[id] = true
			}
		}
		end := log.Durable()
		rep, err := Run(log, pager)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if h.losers == 0 || rep.LoserTxns != h.losers || rep.PagesSkipped == 0 || rep.PagesRedone == 0 {
			t.Fatalf("seed %d: history does not exercise every path: %+v", seed, rep)
		}
		if n := pager.reads[h.currentNote] + pager.reads[h.currentFlash]; n != 0 {
			t.Fatalf("seed %d: pages %d and %d, current on disk and in flash, read %d times", seed, h.currentNote, h.currentFlash, n)
		}
		if pager.reads[h.noteOverOlderFlash] != 1 {
			t.Fatalf("seed %d: page %d, whose flash copy is older than its current note, read %d times, want 1",
				seed, h.noteOverOlderFlash, pager.reads[h.noteOverOlderFlash])
		}
		if err := log.ForceAll(); err != nil {
			t.Fatal(err)
		}

		ref := make(map[page.ID]page.Buf, len(persistent))
		for id, buf := range persistent {
			ref[id] = buf.Clone()
		}
		applied := 0
		err = log.Iterate(0, func(r *wal.Record) error {
			if r.Type != wal.TypeUpdate && r.Type != wal.TypeCompensation && r.Type != wal.TypeFormat {
				return nil
			}
			buf, ok := ref[r.PageID]
			if !ok {
				buf = page.NewBuf()
				buf.SetID(r.PageID)
				ref[r.PageID] = buf
			}
			if buf.LSN() >= r.LSN && buf.LSN() != 0 {
				return nil
			}
			if r.Type == wal.TypeFormat {
				buf.Init(r.PageID, r.PageType)
			}
			page.Redo(buf, r.Ops, r.Type == wal.TypeUpdate)
			buf.SetLSN(r.LSN)
			if r.LSN < end {
				applied++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RedoApplied != applied {
			t.Fatalf("seed %d: redo applied %d, log-order replay %d", seed, rep.RedoApplied, applied)
		}
		if len(pager.pages) != len(ref) {
			t.Fatalf("seed %d: %d pages after Run, %d after replay", seed, len(pager.pages), len(ref))
		}
		for id, want := range ref {
			if !bytes.Equal(pager.pages[id], want) {
				t.Fatalf("seed %d: page %d differs from the log-order replay", seed, id)
			}
		}
	}
}

// history is a seeded log and the persistent database at its end.
type history struct {
	log *wal.Manager
	// disk holds the data device's copy of every page written there, each
	// write followed by a page-written note, and flash the copy of every
	// page the flash cache holds.
	disk, flash map[page.ID]page.Buf
	losers      int
	// currentNote is on disk only, with a note that covers its last
	// record; currentFlash is in flash, current; noteOverOlderFlash has a
	// current note but a flash copy that misses its last record.
	currentNote, currentFlash, noteOverOlderFlash page.ID
}

// persistent returns the copy of every page a read returns: the flash
// copy when the cache holds one, the disk copy otherwise.
func (h *history) persistent() map[page.ID]page.Buf {
	out := make(map[page.ID]page.Buf, len(h.disk)+len(h.flash))
	for id, buf := range h.disk {
		out[id] = buf
	}
	for id, buf := range h.flash {
		out[id] = buf
	}
	return out
}

// randomHistory logs a seeded history on pages 1..24 under page-level
// two-phase locking, with pages staged into flash and written to disk
// along the way, and returns it.
func randomHistory(t *testing.T, seed uint64) *history {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 36))
	log := newLog(t)
	log.Append(&wal.Record{Type: wal.TypeCommit, TxID: 0}) // keep records off LSN 0
	h := &history{log: log, disk: make(map[page.ID]page.Buf), flash: make(map[page.ID]page.Buf)}

	live := make(map[page.ID]page.Buf)
	owner := make(map[page.ID]wal.TxID)
	undo := make(map[wal.TxID][]*wal.Record)
	next := wal.TxID(1)
	appendRec := func(r *wal.Record) {
		if _, err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// logged appends the record of what w did to its page, and stamps the
	// page.
	w := page.NewWriter(nil)
	logged := func(r *wal.Record) {
		r.Ops = bytes.Clone(w.Ops())
		appendRec(r)
		live[r.PageID].SetLSN(r.LSN)
	}
	// writeDisk writes the pages to disk and notes the writes; the cache
	// keeps its copies when keepFlash is set and drops them otherwise.
	writeDisk := func(keepFlash bool, ids ...page.ID) {
		r := &wal.Record{Type: wal.TypePageWritten}
		for _, id := range ids {
			h.disk[id] = live[id].Clone()
			r.Written = append(r.Written, wal.PageWrite{ID: id, LSN: live[id].LSN()})
			if !keepFlash {
				delete(h.flash, id)
			}
		}
		appendRec(r)
	}
	release := func(tx wal.TxID) {
		for id, o := range owner {
			if o == tx {
				delete(owner, id)
			}
		}
		delete(undo, tx)
	}
	// compensate rolls back tx's newest n updates, logging each.
	compensate := func(tx wal.TxID, n int) {
		stack := undo[tx]
		for ; n > 0 && len(stack) > 0; n-- {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			w.Undo(live[u.PageID], u.Ops)
			logged(&wal.Record{Type: wal.TypeCompensation, TxID: tx, PageID: u.PageID})
		}
		undo[tx] = stack
	}
	update := func(tx wal.TxID, id page.ID) {
		w.Reset(live[id])
		off := page.HeaderSize + rng.IntN(2000)
		if rng.IntN(2) == 0 {
			b := w.Bytes(off, 1+rng.IntN(16))
			for i := range b {
				b[i] ^= byte(1 + rng.IntN(255))
			}
		} else {
			n, k := 1+rng.IntN(200), 1+rng.IntN(8)
			w.Move(off+k, off, n)
			copy(w.Bytes(off, k), bytes.Repeat([]byte{byte(tx)}, k))
		}
		r := &wal.Record{Type: wal.TypeUpdate, TxID: tx, PageID: id}
		logged(r)
		undo[tx] = append(undo[tx], r)
	}
	randomPage := func() page.ID { return page.ID(1 + rng.IntN(len(live))) }

	var active []wal.TxID
	for step := 0; step < 600; step++ {
		switch k := rng.IntN(20); {
		case k < 2 && len(active) < 4 || len(active) == 0:
			active = append(active, next)
			next++
		case k < 4 && len(live) < 24:
			tx := active[rng.IntN(len(active))]
			id := page.ID(len(live) + 1)
			r := &wal.Record{Type: wal.TypeFormat, TxID: tx, PageID: id, PageType: page.TypeHeap}
			appendRec(r)
			buf := page.NewBuf()
			buf.Init(id, page.TypeHeap)
			buf.SetLSN(r.LSN)
			live[id] = buf
			owner[id] = tx
		case k < 15 && len(live) > 0:
			tx := active[rng.IntN(len(active))]
			id := randomPage()
			if o, held := owner[id]; held && o != tx {
				continue
			}
			owner[id] = tx
			update(tx, id)
		case k < 16 && len(live) > 0:
			// The flash cache takes a copy of a page.
			id := randomPage()
			h.flash[id] = live[id].Clone()
		case k < 17 && len(live) > 0:
			// A page or two reach the disk, leaving the cache or not; a
			// copy it keeps may be older than the disk's.
			ids := []page.ID{randomPage()}
			if id := randomPage(); id != ids[0] && rng.IntN(2) == 0 {
				ids = append(ids, id)
			}
			writeDisk(rng.IntN(2) == 0, ids...)
		default:
			i := rng.IntN(len(active))
			tx := active[i]
			if rng.IntN(3) == 0 {
				compensate(tx, len(undo[tx]))
				appendRec(&wal.Record{Type: wal.TypeAbort, TxID: tx})
			} else {
				appendRec(&wal.Record{Type: wal.TypeCommit, TxID: tx})
			}
			release(tx)
			active = append(active[:i], active[i+1:]...)
		}
	}
	// One more transaction updates an unlocked page just before the crash.
	active = append(active, next)
	next++
	var unlocked []page.ID
	for id := page.ID(1); int(id) <= len(live); id++ {
		if _, held := owner[id]; !held {
			unlocked = append(unlocked, id)
		}
	}
	if len(unlocked) < 4 {
		t.Fatalf("seed %d: %d unlocked pages at the crash, want 4", seed, len(unlocked))
	}
	owner[unlocked[0]] = active[len(active)-1]
	update(active[len(active)-1], unlocked[0])
	// The transactions still running are the losers; one was half way
	// through rolling back when the system stopped.
	for i, tx := range active {
		if len(undo[tx]) == 0 {
			continue
		}
		if i == 0 {
			compensate(tx, len(undo[tx])/2)
		}
		h.losers++
	}
	// Three unlocked pages reach the persistent database at the very end:
	// one on disk, one in flash, and one whose flash copy misses a change
	// a last transaction made before the page reached disk.
	h.currentNote, h.currentFlash, h.noteOverOlderFlash = unlocked[1], unlocked[2], unlocked[3]
	writeDisk(false, h.currentNote)
	h.flash[h.currentFlash] = live[h.currentFlash].Clone()
	h.flash[h.noteOverOlderFlash] = live[h.noteOverOlderFlash].Clone()
	update(next, h.noteOverOlderFlash)
	appendRec(&wal.Record{Type: wal.TypeCommit, TxID: next})
	writeDisk(true, h.noteOverOlderFlash)
	if err := log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	return h
}
