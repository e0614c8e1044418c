package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/obs/trace"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// Tx is a transaction.  Every transaction is started by View or Update,
// which pass it to their closure and commit or roll it back when the
// closure returns (see sched.go); transactions run concurrently, isolated
// by page-granularity strict two-phase locking.  A Tx used after its
// closure has returned fails with ErrTxDone.
type Tx struct {
	db   *DB
	id   wal.TxID
	done bool
	// readonly rejects Modify, Edit and Alloc with ErrConflict (View).
	readonly bool

	// locks is the transaction's page lock state: Read takes a shared
	// lock, Modify, Edit and Alloc an exclusive one, all held until commit
	// or abort (strict 2PL).  It is nil once the locks are released.
	locks *lock.Txn
	// ctx bounds lock waits; a cancelled context unblocks a queued
	// request and the transaction rolls back.
	ctx context.Context

	// arena holds the transaction's Writers, the edits of its update
	// records and the undo list over them (see edit.go); nil until the
	// first Edit or Modify, and again once commit or abort is done with it.
	arena *editArena

	// tr accumulates the commit-path phase trace for write transactions
	// (nil when observability is disabled — every hook below starts with
	// that nil check).
	tr *txTrace
}

// beginTx starts a transaction whose lock waits ctx bounds, with its lock
// state from the lock manager.
func (db *DB) beginTx(ctx context.Context, readonly bool) (*Tx, error) {
	if db.crashed.Load() {
		return nil, ErrCrashed
	}
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := db.loadIOErr(); err != nil {
		return nil, err
	}
	id := wal.TxID(db.nextTx.Add(1))
	return &Tx{db: db, id: id, readonly: readonly, ctx: ctx, locks: db.locks.Begin(uint64(id))}, nil
}

// ctxErr reports whether the transaction's context has ended.  Every
// page operation checks it, so a request whose deadline expired or whose
// client went away stops at the next operation instead of running its
// closure to completion — the scheduler then rolls the transaction back.
// The abort path never consults it: rollback must always finish.
func (tx *Tx) ctxErr() error { return tx.ctx.Err() }

// lockPage acquires the page lock in the given mode.  A page the
// transaction already holds strongly enough is answered from its own lock
// state, and only a request that blocked is charged to the lock_wait phase.
func (tx *Tx) lockPage(id page.ID, mode lock.Mode) error {
	waited, err := tx.locks.Acquire(tx.ctx, id, mode)
	if tx.tr == nil {
		return err
	}
	if waited > 0 {
		tx.tr.charge(phaseLockWait, time.Now().Add(-waited), waited, uint64(id), mode.String())
	}
	if err != nil && tx.tr.span != nil {
		// A deadlock victim's trace is pinned with the wait-for cycle
		// the lock manager detected, so the journal answers "deadlocked
		// on what, holding what" directly.
		var derr *lock.DeadlockError
		if errors.As(err, &derr) {
			tx.tr.span.Pin(trace.PinDeadlock,
				fmt.Sprintf("cycle: %s; held: %v", derr.CycleString(), derr.Held))
		}
	}
	return err
}

// poolGet pins a page, charging the time the pool spent off its fast path
// (a latch wait, a miss and the eviction that made room for it) to the
// buffer phase of a traced transaction.  A hit reads no clock.
func (tx *Tx) poolGet(id page.ID) (page.Buf, error) {
	if tx.tr == nil {
		return tx.db.pool.Get(id)
	}
	buf, slow, err := tx.db.pool.GetTimed(id)
	if !slow.IsZero() {
		tx.tr.charge(phaseBuffer, slow, time.Since(slow), uint64(id), "")
	}
	return buf, err
}

// logAppend appends a record, charging the reservation and copy to the
// wal_append phase of a traced transaction.
func (tx *Tx) logAppend(rec *wal.Record) (page.LSN, error) {
	if tx.tr == nil {
		return tx.db.log.Append(rec)
	}
	t0 := time.Now()
	lsn, err := tx.db.log.Append(rec)
	tx.tr.charge(phaseWalAppend, t0, time.Since(t0), uint64(rec.PageID), "")
	return lsn, err
}

// releaseLocks drops every page lock the transaction holds, once: commit
// releases early (after the commit-record append) and its deferred call
// must not touch the contended lock-manager mutex again — nor the lock
// state, which the manager recycles — so the reference is cleared on first
// use.
func (tx *Tx) releaseLocks() {
	if tx.locks != nil {
		tx.locks.ReleaseAll()
		tx.locks = nil
	}
}

// ReadOnly reports whether the transaction rejects writes.
func (tx *Tx) ReadOnly() bool { return tx.readonly }

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return uint64(tx.id) }

// Read pins the page, passes it to fn for read-only use, and unpins it.
// It first takes a shared lock on the page, which may block behind a
// writer or fail with ErrDeadlock.
func (tx *Tx) Read(id page.ID, fn func(buf page.Buf) error) error {
	if tx.done {
		return ErrTxDone
	}
	if err := tx.ctxErr(); err != nil {
		return err
	}
	if err := tx.lockPage(id, lock.Shared); err != nil {
		return err
	}
	buf, err := tx.poolGet(id)
	if err != nil {
		return err
	}
	defer tx.db.pool.Unpin(id)
	return fn(buf)
}

// Peek reads the page as Read does, but a shared lock it takes is released
// when fn returns: the page may change as soon as Peek has returned, and a
// caller must check what it learned from it against the pages it locks
// afterwards.  A lock the transaction held before the call is kept.  Every
// B-tree descent reads the internal nodes with it (btree), so a transaction
// waiting for a leaf holds no lock on the leaf's parent, which the leaf's
// writer may need to split it.
func (tx *Tx) Peek(id page.ID, fn func(buf page.Buf) error) error {
	if tx.done || tx.locks.Holds(id) {
		return tx.Read(id, fn)
	}
	defer tx.locks.Release(id)
	return tx.Read(id, fn)
}

// Holds reports whether the transaction holds a lock on page id.
func (tx *Tx) Holds(id page.ID) bool { return !tx.done && tx.locks.Holds(id) }

// Unlock gives back the transaction's lock on page id before the
// transaction ends, by the rule Peek's release follows: the caller took the
// lock after a point at which Holds(id) reported false, so nothing the
// transaction read before that point depends on it, and the transaction has
// changed nothing on the page since, so no undo needs it.  A B-tree writer
// whose check of the ancestors it locked fails gives them back this way
// before it descends again.  A page the transaction changed keeps its lock,
// and Unlock reports false.
func (tx *Tx) Unlock(id page.ID) bool {
	if tx.done {
		return false
	}
	if tx.arena != nil {
		for _, u := range tx.arena.undo {
			if u.pageID == id {
				return false
			}
		}
	}
	tx.locks.Release(id)
	return true
}

// Modify pins the page, lets fn change it in place, and logs what changed
// as one update record, as Edit does.  fn may write anywhere in the page,
// so the whole page is saved and compared; the storage layers use Edit,
// which saves and compares only what its callback declares.
func (tx *Tx) Modify(id page.ID, fn func(buf page.Buf) error) error {
	return tx.Edit(id, func(w *page.Writer) error { return fn(w.Bytes(0, page.Size)) })
}

// logUpdate appends the update record of edits, which changed page id into
// buf, stamps the page LSN, marks the page dirty and keeps the edits for
// undo.  No edits log nothing.  logged reports whether the record reached
// the log: if it did not, the caller puts the page back as it was.
func (tx *Tx) logUpdate(id page.ID, buf page.Buf, edits []wal.Edit) (logged bool, err error) {
	if len(edits) == 0 {
		return false, nil
	}
	rec := wal.Record{Type: wal.TypeUpdate, TxID: tx.id, PageID: id, Edits: edits}
	lsn, err := tx.logAppend(&rec)
	if err != nil {
		return false, err
	}
	buf.SetLSN(lsn)
	if err := tx.db.pool.MarkDirty(id); err != nil {
		return true, err
	}
	tx.arena.undo = append(tx.arena.undo, undoRecord{pageID: id, edits: edits})
	return true, nil
}

// Alloc allocates and formats a new page of the given type.  The
// formatting is logged as a format record (page id and type) so recovery
// can repeat it.
func (tx *Tx) Alloc(t page.Type) (page.ID, error) {
	if tx.done {
		return page.InvalidID, ErrTxDone
	}
	if tx.readonly {
		return page.InvalidID, fmt.Errorf("%w: Alloc", ErrConflict)
	}
	if err := tx.ctxErr(); err != nil {
		return page.InvalidID, err
	}
	db := tx.db
	db.mu.Lock()
	id := db.nextPage
	if int64(id) >= db.dataDev.NumBlocks() {
		db.mu.Unlock()
		return page.InvalidID, fmt.Errorf("engine: data device full (%d pages)", db.dataDev.NumBlocks())
	}
	db.nextPage++
	db.mu.Unlock()

	// The id is fresh, so the exclusive lock is granted immediately; it
	// keeps the new page invisible to concurrent readers until commit.
	if err := tx.lockPage(id, lock.Exclusive); err != nil {
		return page.InvalidID, err
	}
	var t0 time.Time
	if tx.tr != nil {
		t0 = time.Now()
	}
	buf, err := db.pool.Put(id, func(buf page.Buf) { buf.Init(id, t) })
	if tx.tr != nil {
		tx.tr.charge(phaseBuffer, t0, time.Since(t0), uint64(id), "alloc")
	}
	if err != nil {
		return page.InvalidID, err
	}
	defer db.pool.Unpin(id)

	rec := &wal.Record{Type: wal.TypeFormat, TxID: tx.id, PageID: id, PageType: t}
	lsn, err := tx.logAppend(rec)
	if err != nil {
		return page.InvalidID, err
	}
	buf.SetLSN(lsn)
	if err := db.pool.MarkDirty(id); err != nil {
		return page.InvalidID, err
	}
	return id, nil
}

// commit makes the transaction durable: a commit record is appended and the
// log is forced (commit-time force-write, Section 4 of the paper).
// Read-only transactions commit without touching the log.
func (tx *Tx) commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	defer tx.releaseLocks()
	// Nothing is undone once commit has begun.
	tx.releaseArena()
	db := tx.db
	if !tx.readonly {
		rec := &wal.Record{Type: wal.TypeCommit, TxID: tx.id}
		lsn, err := tx.logAppend(rec)
		if err != nil {
			return err
		}
		// Early lock release: with the commit record appended, any
		// transaction that reads our writes appends its own commit after
		// ours, so a log force that makes it durable makes us durable
		// first — the classic pairing with group commit.  Releasing
		// before the force lets the successor reach its own commit inside
		// our force's collection window instead of after it, which is
		// what makes batches fill on hot-page workloads.
		tx.releaseLocks()
		var t0 time.Time
		if tx.tr != nil {
			t0 = time.Now()
		}
		err = db.log.Force(lsn + 1)
		if tx.tr != nil {
			d := time.Since(t0)
			tx.tr.charge(phaseDurable, t0, d, 0, "")
			if st := db.obs.tracer.SyncStall(); st > 0 && d >= st && tx.tr.span != nil {
				// The force stalled long past a healthy fsync: pin the
				// trace as WAL sync-stall evidence.
				tx.tr.span.Pin(trace.PinStall, "durable wait "+d.String())
			}
		}
		if err != nil {
			return err
		}
	}
	// A poisoned instance must not report success: a read served in the
	// narrow window between the pull path dropping a victim and the
	// poison landing could have observed a stale disk copy.  (Writers are
	// additionally stopped by their commit force hitting the same sticky
	// device error.)
	if err := db.loadIOErr(); err != nil {
		return err
	}
	db.committed.Add(1)
	db.obs.recordCommit(tx.id, tx.tr)
	return nil
}

// abort rolls the transaction back by undoing its update records in reverse
// order.  Each undo is logged as a compensation record — the inverse edits,
// redo-only — so redo replays it, and restart after a crash in mid-abort
// undoes only the updates no compensation record covers.
func (tx *Tx) abort() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	defer tx.releaseLocks()
	defer tx.releaseArena()
	db := tx.db
	if tx.readonly {
		db.aborted.Add(1)
		return nil
	}
	var undo []undoRecord
	if tx.arena != nil {
		undo = tx.arena.undo
	}
	for i := len(undo) - 1; i >= 0; i-- {
		u := undo[i]
		buf, err := db.pool.Get(u.pageID)
		if err != nil {
			return err
		}
		wal.Invert(u.edits)
		rec := &wal.Record{Type: wal.TypeCompensation, TxID: tx.id, PageID: u.pageID, Edits: u.edits}
		lsn, err := db.log.Append(rec)
		if err != nil {
			db.pool.Unpin(u.pageID)
			return err
		}
		for j := range u.edits {
			u.edits[j].Apply(buf)
		}
		buf.SetLSN(lsn)
		if err := db.pool.MarkDirty(u.pageID); err != nil {
			db.pool.Unpin(u.pageID)
			return err
		}
		db.pool.Unpin(u.pageID)
	}
	rec := &wal.Record{Type: wal.TypeAbort, TxID: tx.id}
	if _, err := db.log.Append(rec); err != nil {
		return err
	}
	db.aborted.Add(1)
	return nil
}

// Differ tuning.  A shift is looked for in regions whose changed bytes lie
// at most maxShift apart (moving an array of records by one record changes
// at least one byte per record) and that are long enough to pay for the
// attempt; plain writes are split wherever the unchanged gap costs more as
// two images than another edit header does.  A shift declared with
// Writer.Move may be as long as an edit can record.
const (
	maxShift         = 64
	minShiftRegion   = 32
	maxWriteGap      = wal.EditHeaderSize / 2
	maxDeclaredShift = math.MaxInt8
)

// span is one edit before its images are copied: the region [lo, hi) and
// the shift distance (0 for a write).
type span struct {
	lo, hi int
	shift  int
}

// move is a Writer.Move the differ may log as one shift edit: n bytes from
// src to dst.  The zero move declares none.
type move struct{ dst, src, n int }

// wholePage is the one window of a differ that compares every byte.
var wholePage = []page.Window{{Lo: 0, Hi: page.Size}}

// diffMoved returns the edits that turn before into after: disjoint, in
// ascending order, with their own copies of the image bytes, so that neither
// image is referenced afterwards.  Every byte is compared, the page LSN
// field included — callers stamp the LSN after the diff, so it only shows up
// here if the callback itself wrote to it.  If the move m holds, its region
// becomes one shift edit and only the rest of the page is diffed.
//
// It is the differ's definition: the windowed differ of Edit must return
// what it returns.
func diffMoved(before, after page.Buf, m move) []wal.Edit {
	edits := (*editArena)(nil).diff(before, after, m, wholePage)
	checkEdits(before, after, edits)
	return edits
}

// shift returns the shift edit the move makes, if it moves something,
// within reach of one edit, is borne out by the images, and is cheaper than
// logging the bytes it changed as writes (the rule tailShift applies).
func (m move) shift(before, after page.Buf) (span, bool) {
	dst, src, n := m.dst, m.src, m.n
	k := dst - src
	if k == 0 || max(k, -k) > maxDeclaredShift || n < minShiftRegion ||
		string(after[dst:dst+n]) != string(before[src:src+n]) {
		return span{}, false
	}
	s := span{lo: min(src, dst), hi: max(src, dst) + n, shift: k}
	if !cheaperThanWrites(before, after, s) {
		return span{}, false
	}
	return s, true
}

// diffRange appends, last first, the spans of the changes within
// [floor, top).  The range is walked from its end towards its start,
// because that is the end a moved array is recognised from (see tailShift).
func diffRange(spans []span, before, after page.Buf, floor, top int) []span {
	for hi := lastDiff(before, after, floor, top); hi > floor; {
		lo := regionStart(before, after, floor, hi, maxShift)
		spans = appendRegion(spans, before, after, lo, hi)
		hi = lastDiff(before, after, floor, lo)
	}
	return spans
}

// editsOf turns spans, found last first, into edits in ascending order
// with their images copied into the arena.
func (a *editArena) editsOf(before, after page.Buf, spans []span) []wal.Edit {
	if len(spans) == 0 {
		return nil
	}
	total := 0
	for _, s := range spans {
		total += 2 * s.imageLen()
	}
	images, edits := a.alloc(total, len(spans))
	for i := range edits {
		s := spans[len(spans)-1-i]
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

func (s span) imageLen() int {
	if s.shift == 0 {
		return s.hi - s.lo
	}
	return max(s.shift, -s.shift)
}

// regionStart returns the start of the changed region that ends at hi
// (byte hi-1 differs) and lies within [floor, hi): the first changed byte
// not preceded, within gap unchanged bytes, by another changed one.
func regionStart(before, after page.Buf, floor, hi, gap int) int {
	// [i, lo) is unchanged; the walk stops once it is longer than gap.
	lo := hi - 1
	i := lo
	if gap >= 8 {
		// No two changed bytes of a word are more than six apart, so only a
		// word's highest changed byte needs the gap test, and the region
		// then extends to its lowest.  The walk steps by whole words
		// whatever it finds, so the next load never waits for this one.
		for i-floor >= 8 && lo-i <= gap {
			i -= 8
			x := binary.LittleEndian.Uint64(before[i:]) ^ binary.LittleEndian.Uint64(after[i:])
			if x == 0 {
				continue
			}
			if lo-(i+7-bits.LeadingZeros64(x)/8) > gap+1 {
				return lo
			}
			lo = i + bits.TrailingZeros64(x)/8
		}
	}
	for i > floor && lo-i <= gap {
		i--
		if before[i] != after[i] {
			lo = i
		}
	}
	return lo
}

// suffixLen returns the length of the longest common suffix of a and b,
// which are of one length.  Most of a modified page is unchanged, so equal
// stretches are skipped a block at a time with the runtime's vectorised
// comparison, the block holding a difference is halved down to 64 bytes,
// and only those are walked, eight bytes at a time.
func suffixLen(a, b []byte) int {
	const big, small = 1024, 64
	n := len(a)
	b = b[:n]
	if n == 0 || a[n-1] != b[n-1] {
		return 0
	}
	i := n
	for i >= big && string(a[i-big:i]) == string(b[i-big:i]) {
		i -= big
	}
	for w := big / 2; w >= small; w /= 2 {
		if i >= w && string(a[i-w:i]) == string(b[i-w:i]) {
			i -= w
		}
	}
	for ; i >= 8; i -= 8 {
		// Little endian: the last byte is the word's most significant.
		if x := binary.LittleEndian.Uint64(a[i-8:]) ^ binary.LittleEndian.Uint64(b[i-8:]); x != 0 {
			return n - i + bits.LeadingZeros64(x)/8
		}
	}
	for i > 0 && a[i-1] == b[i-1] {
		i--
	}
	return n - i
}

// lastDiff returns the largest i in (lo, hi] with before[i-1] != after[i-1],
// or lo if the images agree on all of [lo, hi).
func lastDiff(before, after page.Buf, lo, hi int) int {
	return hi - suffixLen(before[lo:hi], after[lo:hi])
}

// appendRegion appends, last first, the spans of the changed region
// [lo, hi), whose first and last bytes differ: shifts for as long as the
// tail of what is left is one, then plain writes.
func appendRegion(spans []span, before, after page.Buf, lo, hi int) []span {
	for hi-lo >= minShiftRegion {
		s, ok := tailShift(before, after, lo, hi)
		if !ok {
			break
		}
		spans = append(spans, s)
		hi = lastDiff(before, after, lo, s.lo)
	}
	for hi > lo {
		start := regionStart(before, after, lo, hi, maxWriteGap)
		spans = append(spans, span{lo: start, hi: hi})
		hi = lastDiff(before, after, lo, start)
	}
	return spans
}

// tailShift looks for the [s, hi) within [lo, hi) most of whose content
// moved by k bytes, 1 <= k <= maxShift, in either direction — towards
// higher offsets when after[s+k:hi] == before[s:hi-k] — and reports it if
// logging the shift is cheaper than logging the bytes it changed.
func tailShift(before, after page.Buf, lo, hi int) (span, bool) {
	best, moved := span{hi: hi}, 0
	// No more than hi-lo-k bytes can have moved by k, so the search ends
	// when that cannot beat the best so far.
	for k := 1; k <= maxShift && moved < hi-lo-k; k++ {
		// n counts the bytes at the end of the region that moved by k, up
		// and then down.  It beats the best so far only if the byte that
		// many back from the end moved too, which is looked at first: once
		// the real distance is found, the others are dismissed at a glance.
		if after[hi-1-moved] == before[hi-k-1-moved] {
			if n := suffixLen(after[lo+k:hi], before[lo:hi-k]); n > moved {
				moved, best.lo, best.shift = n, hi-k-n, k
			}
		}
		if moved < hi-lo-k && after[hi-k-1-moved] == before[hi-1-moved] {
			if n := suffixLen(after[lo:hi-k], before[lo+k:hi]); n > moved {
				moved, best.lo, best.shift = n, hi-k-n, -k
			}
		}
	}
	if moved == 0 || !cheaperThanWrites(before, after, best) {
		return span{}, false
	}
	return best, true
}

// cheaperThanWrites reports whether the shift s costs less than logging
// the bytes it changes as writes.  The shift costs a header and two images
// of |k| bytes.  As writes the same bytes cost two images of every changed
// byte, possibly appended to the write in front of them at no further
// header.  Counting goes a word at a time and stops as soon as the writes
// are known to cost more.
func cheaperThanWrites(before, after page.Buf, s span) bool {
	const low7, high = 0x7F7F7F7F7F7F7F7F, 0x8080808080808080
	cost, changed, i := wal.EditHeaderSize+2*s.imageLen(), 0, s.lo
	for ; i+8 <= s.hi && cost >= 2*changed; i += 8 {
		x := binary.LittleEndian.Uint64(before[i:]) ^ binary.LittleEndian.Uint64(after[i:])
		// The top bit of each byte of x that is not zero.
		changed += bits.OnesCount64((x&low7 + low7 | x) & high)
	}
	for ; i < s.hi && cost >= 2*changed; i++ {
		if before[i] != after[i] {
			changed++
		}
	}
	return cost < 2*changed
}
