package engine

import (
	"context"
	"errors"
	"time"
)

// This file is the transaction scheduler: bolt-style closure transactions
// under page-granularity strict two-phase locking.
//
// View and Update transactions both hold the read side of txMu, which
// only fences lifecycle operations (Checkpoint, Close, Crash and Tick take
// the write side); isolation comes from the lock manager.  Transactions
// lock pages at first touch — shared for Read, exclusive for Modify and
// Alloc — and hold them to commit or abort, so the schedule stays
// serializable and concurrent writers feed the flash pipeline from
// multiple cores.  A transaction refused by deadlock detection is rolled
// back and returns ErrDeadlock; callers retry it.  Config.MaxWriters caps
// the Update transactions admitted at once (1 serialises writers), and
// commit-time log forces of concurrent writers are batched by the WAL's
// group-commit protocol.  A lone writer pays for none of this beyond its
// grants: re-reading a page it holds never reaches the manager, and a lock
// granted at once reads no clock and records no span.
//
// The context is checked at the transaction boundaries — before the
// transaction begins and again before it commits — and bounds lock waits,
// unblocking a queued transaction mid-closure; a cancelled context never
// commits.
//
// The scheduler also drives the commit-path phase trace (obs.go): Update
// starts the trace before it waits for admission, the transaction's own
// hooks charge lock, buffer, WAL and force waits to their phases, and
// runManaged attributes the remainder of the closure's wall time to the
// closure phase.  A View is timed as a whole and otherwise untraced.

// View runs fn in a read-only transaction.  Any number of View
// transactions run concurrently with each other.  The transaction ends
// when fn returns, and any error fn returns is propagated after rollback.
// Writes inside fn fail with ErrConflict.
// A View acquires shared page locks as it reads, so it sees a consistent
// multi-page state and can return ErrDeadlock; retrying is safe.
func (db *DB) View(ctx context.Context, fn func(*Tx) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t0 := time.Now()
	defer func() { db.obs.view.Observe(time.Since(t0)) }()
	db.txMu.RLock()
	defer db.txMu.RUnlock()
	return db.runManaged(ctx, true, nil, fn)
}

// Update runs fn in a read-write transaction.  If fn returns nil the
// transaction is committed (with a commit-time log force); if fn returns
// an error or the context is cancelled, the transaction is rolled back and
// the page images it changed are restored.
//
// Update transactions run concurrently with each other and with View
// transactions, isolated by page locks, and may return ErrDeadlock after
// rollback; retrying the closure is safe and expected.
func (db *DB) Update(ctx context.Context, fn func(*Tx) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// A request trace arriving through the context gets the engine's
	// phase spans attached; without one the engine starts (and later
	// finishes) a trace of its own, so embedded deployments feed the
	// journal too.
	tr := &txTrace{start: time.Now(), span: traceFrom(ctx)}
	if tr.span == nil {
		tr.span = db.obs.tracer.Start(0, "update")
		tr.own = true
	}
	defer db.obs.finishOwn(tr)
	db.txMu.RLock()
	defer db.txMu.RUnlock()
	if db.writerSem != nil {
		select {
		case db.writerSem <- struct{}{}:
			defer func() { <-db.writerSem }()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Admission: waiting out a lifecycle fence and the writer cap.
	tr.charge(phaseAdmission, tr.start, time.Since(tr.start), 0, "")
	// Register as a committer so the WAL's syncer knows how many
	// concurrent commit forces it may collect.
	db.log.AddCommitter(1)
	defer db.log.AddCommitter(-1)
	return db.runManaged(ctx, false, tr, fn)
}

// runManaged executes fn in a transaction it finishes; the caller holds the
// read side of the scheduler lock.  An Update passes the phase trace it
// started before admission; a View passes nil.
func (db *DB) runManaged(ctx context.Context, readonly bool, tr *txTrace, fn func(*Tx) error) error {
	tx, err := db.beginTx(ctx, readonly)
	if err != nil {
		return err
	}
	tx.tr = tr
	defer func() {
		// Safety net: roll back if fn panicked past the paths below.
		if !tx.done {
			tx.abort()
		}
	}()
	var fnStart time.Time
	if tr != nil {
		fnStart = time.Now()
	}
	if err := fn(tx); err != nil {
		if aerr := tx.abort(); aerr != nil {
			return errors.Join(err, aerr)
		}
		return err
	}
	if tr != nil {
		// The closure phase is fn's wall time net of the engine waits its
		// page operations already charged (lock, buffer, WAL appends) —
		// user code plus anything untraced.  Clamped at zero so clock
		// skew between the measurements never produces a negative phase.
		inner := tr.phase[phaseLockWait] + tr.phase[phaseBuffer] + tr.phase[phaseWalAppend]
		if c := time.Since(fnStart) - inner; c > 0 {
			tr.charge(phaseClosure, fnStart, c, 0, "")
		}
	}
	if err := ctx.Err(); err != nil {
		if aerr := tx.abort(); aerr != nil {
			return errors.Join(err, aerr)
		}
		return err
	}
	return tx.commit()
}
