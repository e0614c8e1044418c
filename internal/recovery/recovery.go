// Package recovery implements database restart after a crash.
//
// The FaCE system follows the two classic recovery principles (Section 4 of
// the paper): write-ahead logging and commit-time log force.  Restart
// therefore performs an ARIES-style pass over the log from the most recent
// completed checkpoint:
//
//  1. redo every page-level change whose effects are missing from the
//     persistent database (flash cache ∪ disk), and
//  2. undo, and log the undoing of, the changes of loser transactions
//     (those without a commit or abort record).
//
// The package is deliberately independent of the engine: pages are accessed
// through the Pager interface, which the engine backs with its buffer pool
// so that recovery reads are served from the flash cache whenever possible.
// That is precisely the mechanism that makes FaCE restarts fast (Table 6 /
// Figure 6 of the paper): most pages needed during recovery are found in
// flash rather than behind random disk reads.
package recovery

import (
	"fmt"
	"sort"

	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// Pager provides page access during recovery.  Get pins the page; Unpin
// releases it; MarkDirty flags it as modified so it reaches the persistent
// database through the normal eviction/checkpoint paths.
type Pager interface {
	Get(id page.ID) (page.Buf, error)
	Unpin(id page.ID) error
	MarkDirty(id page.ID) error
}

// Report summarises what restart did.
type Report struct {
	// StartLSN is the LSN recovery scanned from (the last completed
	// checkpoint, or 0).
	StartLSN page.LSN
	// RecordsScanned is the number of log records examined.
	RecordsScanned int
	// RedoApplied is the number of changes reapplied because the
	// persistent page was older than the log record.
	RedoApplied int
	// RedoSkipped is the number of changes already reflected in the
	// persistent page (its pageLSN was current).
	RedoSkipped int
	// UndoApplied is the number of changes rolled back for loser
	// transactions.
	UndoApplied int
	// WinnerTxns and LoserTxns count transactions that did and did not
	// reach their commit record before the crash.
	WinnerTxns int
	LoserTxns  int
	// MaxPageID is the largest page id seen in the log, used by the
	// engine to restore its page allocator.
	MaxPageID page.ID
}

// Run performs redo and undo.  It returns a report of the work done.
//
// Undo is logged the way a live abort logs it: every update record of a
// loser that is rolled back gets a compensation record, and the loser an
// abort record, so a crash during or after restart never undoes the same
// update twice — which edits that move bytes, unlike plain overwrites,
// would not survive.
func Run(log *wal.Manager, pager Pager) (Report, error) {
	var rep Report
	rep.StartLSN = log.LastCheckpoint()

	// open maps every transaction that has logged an update but no commit
	// or abort record to its update records that no compensation record
	// covers yet, oldest first.
	open := make(map[wal.TxID][]*wal.Record)

	err := log.Iterate(rep.StartLSN, func(r *wal.Record) error {
		rep.RecordsScanned++
		switch r.Type {
		case wal.TypeUpdate, wal.TypeCompensation, wal.TypeFormat:
			if r.PageID > rep.MaxPageID {
				rep.MaxPageID = r.PageID
			}
			if r.TxID != 0 && r.Type == wal.TypeUpdate {
				open[r.TxID] = append(open[r.TxID], r)
			} else if stack := open[r.TxID]; r.Type == wal.TypeCompensation && len(stack) > 0 {
				// Compensation records are written newest update first.
				open[r.TxID] = stack[:len(stack)-1]
			}
			return redo(pager, r, &rep)
		case wal.TypeCommit, wal.TypeAbort:
			if _, ok := open[r.TxID]; ok {
				rep.WinnerTxns++
				delete(open, r.TxID)
			}
		case wal.TypeCheckpointBegin, wal.TypeCheckpointEnd:
			// Checkpoint records carry no page changes.
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("recovery: redo pass: %w", err)
	}

	// Undo the losers, newest transaction first so that repeated runs log
	// the same bytes.  Format records are not undone: a freshly allocated
	// page left behind by a loser is unreachable and harmless.
	losers := make([]wal.TxID, 0, len(open))
	for id := range open {
		losers = append(losers, id)
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] > losers[j] })
	for _, id := range losers {
		rep.LoserTxns++
		stack := open[id]
		for i := len(stack) - 1; i >= 0; i-- {
			if err := undo(log, pager, stack[i], &rep); err != nil {
				return rep, fmt.Errorf("recovery: undo pass: %w", err)
			}
		}
		if _, err := log.Append(&wal.Record{Type: wal.TypeAbort, TxID: id}); err != nil {
			return rep, fmt.Errorf("recovery: undo pass: %w", err)
		}
	}
	return rep, nil
}

// redo reapplies a logged change when the persistent page is older than the
// record.  The page is then exactly as it was when the record was written,
// which is what an edit that moves bytes needs.
func redo(pager Pager, r *wal.Record, rep *Report) error {
	buf, err := pager.Get(r.PageID)
	if err != nil {
		return fmt.Errorf("reading page %d: %w", r.PageID, err)
	}
	defer pager.Unpin(r.PageID)
	if buf.LSN() >= r.LSN && buf.LSN() != 0 {
		rep.RedoSkipped++
		return nil
	}
	if r.Type == wal.TypeFormat {
		buf.Init(r.PageID, r.PageType)
	}
	for i := range r.Edits {
		r.Edits[i].Apply(buf)
	}
	buf.SetLSN(r.LSN)
	if err := pager.MarkDirty(r.PageID); err != nil {
		return err
	}
	rep.RedoApplied++
	return nil
}

// undo rolls back one update record of a loser transaction and logs the
// compensation record.  Strict two-phase locking guarantees nothing else
// touched the page after the loser did, so the inverse edits find the page
// as the record left it.
func undo(log *wal.Manager, pager Pager, r *wal.Record, rep *Report) error {
	buf, err := pager.Get(r.PageID)
	if err != nil {
		return fmt.Errorf("reading page %d: %w", r.PageID, err)
	}
	defer pager.Unpin(r.PageID)
	wal.Invert(r.Edits)
	lsn, err := log.Append(&wal.Record{Type: wal.TypeCompensation, TxID: r.TxID, PageID: r.PageID, Edits: r.Edits})
	if err != nil {
		return err
	}
	for i := range r.Edits {
		r.Edits[i].Apply(buf)
	}
	buf.SetLSN(lsn)
	if err := pager.MarkDirty(r.PageID); err != nil {
		return err
	}
	rep.UndoApplied++
	return nil
}
