// Package heap implements heap tables: unordered collections of records
// stored in slotted pages and addressed by record id (RID).
//
// The TPC-C tables of the benchmark live in heap files; their primary keys
// are indexed by B+trees from the btree package.  All page access goes
// through engine transactions, so every modification is logged and every
// read benefits from the DRAM buffer and the flash cache.
//
// Every change is one Tx.Edit of one page, which logs one update record.
// The set operations, InsertMany and UpdateEach, change the rows they are
// given of one page in one Edit, so they log one record per page, not one
// per row: physiological logging as ARIES has it, and what PostgreSQL's
// heap_multi_insert does.  They leave the rows on the pages
// and in the slots the row calls would, so a caller switches for the log
// alone.
package heap

import (
	"errors"
	"fmt"
	"sync"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// Errors returned by heap tables.
var (
	ErrNotFound = errors.New("heap: record not found")
)

// Table is a heap file.  The page list is an in-memory catalog owned by the
// workload driver; it is rebuilt by the loader, not persisted, because the
// benchmark keeps its catalog across simulated crashes.
//
// The catalog is safe for concurrent transactions (multi-terminal drivers
// under the engine's page-lock scheduler): the page list is guarded by a
// mutex, while the page contents themselves are protected by the
// transactions' page locks.  A page appended by a transaction that later
// aborts stays in the catalog; it rolls back to an empty formatted page,
// which inserts simply fill later.
type Table struct {
	mu    sync.Mutex
	name  string
	pages []page.ID
}

// Create allocates the first page of a new heap table.
func Create(tx *engine.Tx, name string) (*Table, error) {
	id, err := tx.Alloc(page.TypeHeap)
	if err != nil {
		return nil, fmt.Errorf("heap: creating table %s: %w", name, err)
	}
	return &Table{name: name, pages: []page.ID{id}}, nil
}

// Attach reconstructs a Table handle from an existing page list (used when
// a driver re-attaches to a database it loaded earlier).
func Attach(name string, pages []page.ID) *Table {
	cp := append([]page.ID(nil), pages...)
	return &Table{name: name, pages: cp}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Pages returns the ids of all pages of the table.
func (t *Table) Pages() []page.ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]page.ID(nil), t.pages...)
}

// NumPages returns the number of pages in the table.
func (t *Table) NumPages() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pages)
}

// lastPage returns the current tail page of the table.
func (t *Table) lastPage() page.ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pages[len(t.pages)-1]
}

// appendPage links a freshly allocated page into the catalog.
func (t *Table) appendPage(id page.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pages = append(t.pages, id)
}

// Insert appends a record to the table and returns its RID.  The last page
// is tried first; a new page is allocated when it is full.  Concurrent
// transactions may race to grow the table; each that finds the tail full
// appends its own page, so records never collide (the transactions hold
// exclusive page locks), at worst leaving a page partially filled.
func (t *Table) Insert(tx *engine.Tx, rec []byte) (page.RID, error) {
	var rid [1]page.RID
	_, err := t.InsertMany(tx, [][]byte{rec}, rid[:])
	return rid[0], err
}

// InsertMany appends records of recs, in order, to one page of the table in
// one Edit, logged as one update record, stores the RID of recs[i] in
// rids[i] and returns how many it appended: as many as fit on the tail
// page, or, if the first does not fit there, as many as fit on a page it
// adds to the table.  Calls that go on with the rest put the rows on the
// pages and in the slots calls of Insert row by row would, one log record
// per page instead of one per row, and allocate each page at the point the
// row calls would: what the caller does between two calls comes after the
// rows of the first and before the page the second may add.  rids must be
// at least as long as recs.
func (t *Table) InsertMany(tx *engine.Tx, recs [][]byte, rids []page.RID) (int, error) {
	for _, rec := range recs {
		if len(rec) > page.PayloadSize-8 {
			return 0, page.ErrTooLarge
		}
	}
	if len(recs) == 0 {
		return 0, nil
	}
	n, err := t.insertMany(tx, t.lastPage(), recs, rids)
	if err != nil || n > 0 {
		return n, err
	}
	id, err := tx.Alloc(page.TypeHeap)
	if err != nil {
		return 0, fmt.Errorf("heap: growing table %s: %w", t.name, err)
	}
	t.appendPage(id)
	return t.insertMany(tx, id, recs, rids)
}

// insertMany inserts the records of recs that fit on page id, in one Edit.
func (t *Table) insertMany(tx *engine.Tx, id page.ID, recs [][]byte, rids []page.RID) (int, error) {
	n := 0
	err := tx.Edit(id, func(w *page.Writer) error {
		for ; n < len(recs); n++ {
			slot, err := w.Insert(recs[n])
			if errors.Is(err, page.ErrPageFull) {
				return nil
			}
			if err != nil {
				return err
			}
			rids[n] = page.RID{Page: id, Slot: uint16(slot)}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Get passes the record at rid to fn.  The record slice is only valid
// during the callback.
func (t *Table) Get(tx *engine.Tx, rid page.RID, fn func(rec []byte) error) error {
	return tx.Read(rid.Page, func(buf page.Buf) error {
		rec, err := buf.Record(int(rid.Slot))
		if err != nil {
			return fmt.Errorf("%w: %v (%v)", ErrNotFound, rid, err)
		}
		return fn(rec)
	})
}

// Update lets fn modify the record at rid in place.  The record size must
// not grow: the slice fn is given ends with the record, and an append to it
// reallocates rather than reaching the page.
func (t *Table) Update(tx *engine.Tx, rid page.RID, fn func(rec []byte) error) error {
	return tx.Edit(rid.Page, func(w *page.Writer) error {
		rec, err := w.Record(int(rid.Slot))
		if err != nil {
			return fmt.Errorf("%w: %v (%v)", ErrNotFound, rid, err)
		}
		return fn(rec)
	})
}

// UpdateEach lets fn modify the record at each of rids in place, in order,
// as calls of Update would, passing it the RID's position in rids too.  A
// run of RIDs on one page is updated in one Edit, so it is logged as one
// update record; if fn fails, the records of its run stay as they were.
func (t *Table) UpdateEach(tx *engine.Tx, rids []page.RID, fn func(i int, rec []byte) error) error {
	for lo := 0; lo < len(rids); {
		hi := lo + 1
		for hi < len(rids) && rids[hi].Page == rids[lo].Page {
			hi++
		}
		if err := tx.Edit(rids[lo].Page, func(w *page.Writer) error {
			for i := lo; i < hi; i++ {
				rec, err := w.Record(int(rids[i].Slot))
				if err != nil {
					return fmt.Errorf("%w: %v (%v)", ErrNotFound, rids[i], err)
				}
				if err := fn(i, rec); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// Delete removes the record at rid (lazy delete: the slot is tombstoned).
func (t *Table) Delete(tx *engine.Tx, rid page.RID) error {
	return tx.Edit(rid.Page, func(w *page.Writer) error {
		deleted, err := w.Page().Deleted(int(rid.Slot))
		if err != nil {
			return fmt.Errorf("%w: %v (%v)", ErrNotFound, rid, err)
		}
		if deleted {
			return fmt.Errorf("%w: %v already deleted", ErrNotFound, rid)
		}
		return w.Delete(int(rid.Slot))
	})
}

// Scan visits every live record in the table in physical order.  Returning
// a non-nil error from fn stops the scan; the sentinel ErrStopScan stops it
// without reporting an error.
func (t *Table) Scan(tx *engine.Tx, fn func(rid page.RID, rec []byte) error) error {
	for _, id := range t.Pages() {
		err := tx.Read(id, func(buf page.Buf) error {
			for slot := 0; slot < buf.SlotCount(); slot++ {
				deleted, err := buf.Deleted(slot)
				if err != nil {
					return err
				}
				if deleted {
					continue
				}
				rec, err := buf.Record(slot)
				if err != nil {
					return err
				}
				if err := fn(page.RID{Page: id, Slot: uint16(slot)}, rec); err != nil {
					return err
				}
			}
			return nil
		})
		if errors.Is(err, ErrStopScan) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ErrStopScan stops a Scan early without reporting an error.
var ErrStopScan = errors.New("heap: stop scan")
