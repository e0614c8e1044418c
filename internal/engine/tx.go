package engine

import (
	"context"
	"errors"
	"fmt"
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
	// readonly rejects Modify, Edit, Alloc and AllocEdit with ErrConflict
	// (View).
	readonly bool

	// locks is the transaction's page lock state: Read takes a shared
	// lock, Modify, Edit and Alloc an exclusive one, all held until commit
	// or abort (strict 2PL).  It is nil once the locks are released.
	locks *lock.Txn
	// ctx bounds lock waits; a cancelled context unblocks a queued
	// request and the transaction rolls back.
	ctx context.Context

	// arena holds the transaction's Writers, the operations of its update
	// records and the undo list over them (see edit.go); nil until the
	// first Edit, Modify or Alloc, and again once commit or abort is done
	// with it.
	arena *editArena

	// tr accumulates the commit-path phase trace of a write transaction.
	// A read-only transaction has none, and the page hooks below it
	// shares with writers (lockPage, poolGet, logAppend) then read no
	// extra clock.
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
	if err != nil {
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

// logAppend appends a record, charging the time its reservation stalled on
// a full log buffer to the wal_append phase of a traced transaction.  An
// append that did not stall reads no clock.
func (tx *Tx) logAppend(rec *wal.Record) (page.LSN, error) {
	if tx.tr == nil {
		return tx.db.log.Append(rec)
	}
	lsn, stalled, err := tx.db.log.AppendTimed(rec)
	if !stalled.IsZero() {
		tx.tr.charge(phaseWalAppend, stalled, time.Since(stalled), uint64(rec.PageID), "")
	}
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
		if _, changed := tx.arena.changed[id]; changed {
			return false
		}
	}
	tx.locks.Release(id)
	return true
}

// Modify pins the page, lets fn change it in place, and logs what changed
// as one update record, as Edit does.  fn may write anywhere in the page,
// so the whole page is one write, whose changed bytes are logged; the
// storage layers use Edit, whose Writer logs what each of its methods did.
func (tx *Tx) Modify(id page.ID, fn func(buf page.Buf) error) error {
	return tx.Edit(id, func(w *page.Writer) error { return fn(w.Bytes(0, page.Size)) })
}

// logUpdate appends the update record of ops, which changed page id into
// buf, stamps the page LSN, marks the page dirty and keeps the operations,
// and the free space the page had before the transaction, for undo.  No
// operations log nothing.  logged reports whether the record reached the
// log: if it did not, the caller puts the page back as it was.
func (tx *Tx) logUpdate(id page.ID, buf page.Buf, ops []byte, free page.Span) (logged bool, err error) {
	if len(ops) == 0 {
		return false, nil
	}
	rec := wal.Record{Type: wal.TypeUpdate, TxID: tx.id, PageID: id, Ops: ops}
	lsn, err := tx.logAppend(&rec)
	if err != nil {
		return false, err
	}
	buf.SetLSN(lsn)
	if err := tx.db.pool.MarkDirty(id); err != nil {
		return true, err
	}
	a := tx.arena
	a.undo = append(a.undo, undoRecord{pageID: id, ops: a.keep(ops)})
	a.noteChanged(id, free)
	return true, nil
}

// Alloc allocates a new page of the given type, formatted empty: AllocEdit
// with a fill that writes nothing, logged as the page id and type alone.
func (tx *Tx) Alloc(t page.Type) (page.ID, error) {
	return tx.AllocEdit(t, func(*page.Writer) error { return nil })
}

// AllocEdit allocates a new page of the given type, formats it and lets
// fill write the page's first contents through a page.Writer.  Both are
// logged as one redo-only format record: the page type and fill's
// operations, without undo information.  Until commit only the
// transaction's other records link to the page, and undoing them orphans
// it; a page something else reaches at once, like a heap page its table
// lists, takes Alloc and an Edit, which rollback undoes.  A failing fill
// leaves the page empty, logged as Alloc logs it.  Unlock refuses the page,
// as it does a page the transaction changed.
func (tx *Tx) AllocEdit(t page.Type, fill func(w *page.Writer) error) (page.ID, error) {
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
	t0 := time.Now()
	buf, err := db.pool.Put(id, func(buf page.Buf) { buf.Init(id, t) })
	tx.tr.charge(phaseBuffer, t0, time.Since(t0), uint64(id), "alloc")
	if err != nil {
		return page.InvalidID, err
	}
	defer db.pool.Unpin(id)

	a := tx.edits()
	rec := wal.Record{Type: wal.TypeFormat, TxID: tx.id, PageID: id, PageType: t}
	w := a.enter()
	w.ResetRedoOnly(buf)
	fillErr := fill(w)
	if fillErr != nil {
		buf.Init(id, t)
	} else {
		rec.Ops = w.Ops()
	}
	a.depth--
	lsn, err := tx.logAppend(&rec)
	if err != nil {
		return page.InvalidID, err
	}
	buf.SetLSN(lsn)
	if err := db.pool.MarkDirty(id); err != nil {
		return page.InvalidID, err
	}
	// Undo stops at the page as the record left it: a later edit's new
	// cell needs a before image outside its free space.
	a.noteChanged(id, buf.Free())
	if fillErr != nil {
		return page.InvalidID, fillErr
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
		// before the force lets the successor reach its own commit while
		// our force's barrier is in flight, so it joins the next round
		// instead of waiting for ours to end, which is what makes batches
		// fill on hot-page workloads.
		tx.releaseLocks()
		t0 := time.Now()
		err = db.log.Force(lsn + 1)
		d := time.Since(t0)
		tx.tr.charge(phaseDurable, t0, d, 0, "")
		if st := db.obs.tracer.SyncStall(); st > 0 && d >= st {
			// The force stalled long past a healthy fsync: pin the
			// trace as WAL sync-stall evidence.
			tx.tr.span.Pin(trace.PinStall, "durable wait "+d.String())
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
	db.obs.recordCommit(tx.tr)
	return nil
}

// abort rolls the transaction back by undoing its update records in reverse
// order.  Each undo is logged as a compensation record — the inverse
// operations, redo-only — so redo replays it, and restart after a crash in
// mid-abort undoes only the updates no compensation record covers.
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
	if a := tx.arena; a != nil && len(a.undo) > 0 {
		w := a.enter()
		for i := len(a.undo) - 1; i >= 0; i-- {
			if err := tx.undo(w, a.undo[i]); err != nil {
				return err
			}
		}
	}
	rec := &wal.Record{Type: wal.TypeAbort, TxID: tx.id}
	if _, err := db.log.Append(rec); err != nil {
		return err
	}
	db.aborted.Add(1)
	return nil
}

// undo rolls back one update record through w and logs its compensation
// record.
func (tx *Tx) undo(w *page.Writer, u undoRecord) error {
	db := tx.db
	buf, err := db.pool.Get(u.pageID)
	if err != nil {
		return err
	}
	defer db.pool.Unpin(u.pageID)
	ops := w.Undo(buf, u.ops)
	lsn, err := db.log.Append(&wal.Record{Type: wal.TypeCompensation, TxID: tx.id, PageID: u.pageID, Ops: ops})
	if err != nil {
		return err
	}
	buf.SetLSN(lsn)
	return db.pool.MarkDirty(u.pageID)
}
