// Package recovery implements database restart after a crash.
//
// The FaCE system follows the two classic recovery principles (Section 4 of
// the paper): write-ahead logging and commit-time log force.  Restart
// therefore runs the ARIES passes over the log from the most recent
// completed checkpoint:
//
//  1. analysis: one scan of the log groups the page-level records by page,
//     in LSN order, finds the loser transactions (those without a commit
//     or abort record) and keeps, for each page, the pageLSN of its last
//     page-written note (the engine logs one once a page image is durable
//     on the data device);
//  2. redo, page by page in ascending page id order: each page is read
//     once and every change of it missing from the persistent database
//     (flash cache ∪ disk) is reapplied; a page whose persistent copy is
//     known to cover its last record is not read at all;
//  3. undo: the changes of the losers are rolled back, and the rollback is
//     logged.
//
// The package is deliberately independent of the engine: pages are accessed
// through the Pager interface, which the engine backs with its buffer pool
// so that recovery reads are served from the flash cache whenever possible.
// The pager also says which copy of a page a read would return.  When the
// flash cache holds it, the cache's directory, which FaCE restores from its
// persistent metadata before redo starts, gives the copy's pageLSN; when
// only the data device holds it, the page-written notes do.  That is
// precisely the mechanism that makes FaCE restarts fast (Table 6 / Figure 6
// of the paper): the persistent database includes flash, so most pages the
// log names are known to be current in flash or on disk and need not be
// read, and the rest are mostly found in flash rather than behind random
// disk reads.
package recovery

import (
	"fmt"
	"slices"
	"sort"

	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// Pager provides page access during recovery.  Get pins the page; Unpin
// releases it; MarkDirty flags it as modified so it reaches the persistent
// database through the normal eviction/checkpoint paths.  Locate reports,
// without reading the page, which copy Get would return and, for a cached
// copy whose pageLSN the cache records, that pageLSN.
type Pager interface {
	Get(id page.ID) (page.Buf, error)
	Unpin(id page.ID) error
	MarkDirty(id page.ID) error
	Locate(id page.ID) (where Copy, lsn page.LSN)
}

// Copy names the copy of a page Get would return.
type Copy uint8

const (
	// Unknown is a copy whose pageLSN the pager cannot tell: a DRAM frame,
	// or a cache copy that carries no LSN (LC, write-through).
	Unknown Copy = iota
	// Cached is a flash cache copy whose pageLSN Locate returns.
	Cached
	// OnDisk is the data device's copy: nothing else holds the page.  Its
	// pageLSN is at least that of the page's last page-written note.
	OnDisk
)

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
	// PagesRedone is the number of distinct pages redo changed.
	PagesRedone int
	// PagesSkipped is the number of distinct pages redo did not read
	// because their persistent copy was known to cover every record.
	PagesSkipped int
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

// Run performs analysis, redo and undo.  It returns a report of the work
// done.
//
// Undo is logged the way a live abort logs it: every update record of a
// loser that is rolled back gets a compensation record, and the loser an
// abort record, so a crash during or after restart never undoes the same
// update twice — which operations that move bytes or open slots, unlike
// plain overwrites, would not survive.
func Run(log *wal.Manager, pager Pager) (Report, error) {
	var rep Report
	rep.StartLSN = log.LastCheckpoint()

	// pages maps every page the log changes to its records, oldest first.
	// written maps every page with a page-written note to the pageLSN of
	// its last one.  open maps every transaction that has logged an update
	// but no commit or abort record to its update records that no
	// compensation record covers yet, oldest first.
	pages := make(map[page.ID][]*wal.Record)
	written := make(map[page.ID]page.LSN)
	open := make(map[wal.TxID][]*wal.Record)

	err := log.Iterate(rep.StartLSN, func(r *wal.Record) error {
		rep.RecordsScanned++
		switch r.Type {
		case wal.TypeUpdate, wal.TypeCompensation, wal.TypeFormat:
			if r.PageID > rep.MaxPageID {
				rep.MaxPageID = r.PageID
			}
			pages[r.PageID] = append(pages[r.PageID], r)
			if r.TxID != 0 && r.Type == wal.TypeUpdate {
				open[r.TxID] = append(open[r.TxID], r)
			} else if stack := open[r.TxID]; r.Type == wal.TypeCompensation && len(stack) > 0 {
				// Compensation records are written newest update first.
				open[r.TxID] = stack[:len(stack)-1]
			}
		case wal.TypeCommit, wal.TypeAbort:
			if _, ok := open[r.TxID]; ok {
				rep.WinnerTxns++
				delete(open, r.TxID)
			}
		case wal.TypePageWritten:
			for _, w := range r.Written {
				written[w.ID] = w.LSN
			}
		case wal.TypeCheckpointBegin, wal.TypeCheckpointEnd:
			// Checkpoint records carry no page changes.
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("recovery: analysis pass: %w", err)
	}

	// Records only ever change their own page, so replaying each page's
	// records on their own, in LSN order, leaves every page as replaying
	// the whole log in LSN order would, and reads each page once.
	ids := make([]page.ID, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := redo(pager, id, pages[id], written[id], &rep); err != nil {
			return rep, fmt.Errorf("recovery: redo pass: %w", err)
		}
	}

	// Undo the losers, newest transaction first so that repeated runs log
	// the same bytes.  Format records (a new page and its first contents)
	// are not undone: undoing the loser's other records orphans the page.
	losers := make([]wal.TxID, 0, len(open))
	for id := range open {
		losers = append(losers, id)
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] > losers[j] })
	w := page.NewWriter(nil)
	for _, id := range losers {
		rep.LoserTxns++
		stack := open[id]
		for i := len(stack) - 1; i >= 0; i-- {
			if err := undo(log, pager, w, stack[i], &rep); err != nil {
				return rep, fmt.Errorf("recovery: undo pass: %w", err)
			}
		}
		if _, err := log.Append(&wal.Record{Type: wal.TypeAbort, TxID: id}); err != nil {
			return rep, fmt.Errorf("recovery: undo pass: %w", err)
		}
	}
	return rep, nil
}

// redo reapplies, oldest first, the records of one page that are newer than
// the persistent page.  Each is applied to the page exactly as it was when
// the record was written, which is what its operations need: they are run
// again, not copied.
// When the copy Get would return is known to be at least as new as the
// last record — from the cache's directory, or, when only the data device
// holds the page, from its last page-written note (written, 0 without
// one) — every record would be skipped, so the page is not read.
func redo(pager Pager, id page.ID, recs []*wal.Record, written page.LSN, rep *Report) error {
	var known page.LSN
	switch where, lsn := pager.Locate(id); where {
	case Cached:
		known = lsn
	case OnDisk:
		known = written
	}
	if known != 0 && known >= recs[len(recs)-1].LSN {
		rep.RedoSkipped += len(recs)
		rep.PagesSkipped++
		return nil
	}
	buf, err := pager.Get(id)
	if err != nil {
		return fmt.Errorf("reading page %d: %w", id, err)
	}
	defer pager.Unpin(id)
	applied := 0
	for _, r := range recs {
		if buf.LSN() >= r.LSN && buf.LSN() != 0 {
			rep.RedoSkipped++
			continue
		}
		if r.Type == wal.TypeFormat {
			buf.Init(r.PageID, r.PageType)
		}
		page.Redo(buf, r.Ops, r.Type == wal.TypeUpdate)
		buf.SetLSN(r.LSN)
		applied++
	}
	if applied == 0 {
		return nil
	}
	rep.RedoApplied += applied
	rep.PagesRedone++
	return pager.MarkDirty(id)
}

// undo rolls back one update record of a loser transaction through w and
// logs the compensation record.  Strict two-phase locking guarantees
// nothing else touched the page after the loser did, so the inverse
// operations find the page as the record left it.
func undo(log *wal.Manager, pager Pager, w *page.Writer, r *wal.Record, rep *Report) error {
	buf, err := pager.Get(r.PageID)
	if err != nil {
		return fmt.Errorf("reading page %d: %w", r.PageID, err)
	}
	defer pager.Unpin(r.PageID)
	ops := w.Undo(buf, r.Ops)
	lsn, err := log.Append(&wal.Record{Type: wal.TypeCompensation, TxID: r.TxID, PageID: r.PageID, Ops: ops})
	if err != nil {
		return err
	}
	buf.SetLSN(lsn)
	if err := pager.MarkDirty(r.PageID); err != nil {
		return err
	}
	rep.UndoApplied++
	return nil
}
