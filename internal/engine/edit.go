package engine

import (
	"fmt"
	"sync"

	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/page"
)

// Edit pins the page, lets fn change it through a page.Writer, logs the
// operations the Writer recorded as one update record, stamps the page LSN
// and marks the page dirty.  If fn changes nothing, nothing is logged; if it
// returns an error, what it wrote is put back and nothing is logged.
func (tx *Tx) Edit(id page.ID, fn func(w *page.Writer) error) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readonly {
		return fmt.Errorf("%w: Edit of page %d", ErrConflict, id)
	}
	if err := tx.ctxErr(); err != nil {
		return err
	}
	if err := tx.lockPage(id, lock.Exclusive); err != nil {
		return err
	}
	buf, err := tx.poolGet(id)
	if err != nil {
		return err
	}
	defer tx.db.pool.Unpin(id)

	a := tx.edits()
	w := a.enter()
	w.Reset(buf)
	free := buf.Free()
	err = fn(w)
	a.depth--
	if err != nil {
		w.Restore()
		return err
	}
	if logged, err := tx.logUpdate(id, buf, w.Ops(), free); err != nil {
		if !logged {
			w.Restore()
		}
		return err
	}
	return nil
}

// editArena is what one transaction's page edits are made in: a Writer per
// nesting depth of Edit, copies of the operations of its update records, the
// undo list over them and, for each page they changed or created, the free
// space it had before the first of them that undo reaches.  The first Edit,
// Modify or Alloc takes one from a pool, and it goes back once commit or
// abort no longer needs the undo list; the log copies a record when it is
// appended, so nothing else refers to the arena by then.  An arena grown past maxArenaOps is left to the collector
// instead, and so is a map of changed pages past maxArenaPages: clearing a
// map costs what it has grown to, so a large one would charge every later
// transaction that took its arena.
type editArena struct {
	depth   int
	writers []*page.Writer
	ops     []byte
	undo    []undoRecord
	// changed maps each page the transaction changed or created to its
	// free space before the first change that undo reaches: the pages of
	// the undo list, in a form a lookup need not scan, and the new pages.
	changed map[page.ID]page.Span
}

type undoRecord struct {
	pageID page.ID
	ops    []byte
}

const (
	maxArenaOps   = 64 << 10
	maxArenaPages = 64
)

var arenas = sync.Pool{New: func() any { return new(editArena) }}

// edits returns the transaction's arena, taking one from the pool first if
// it has none.
func (tx *Tx) edits() *editArena {
	if tx.arena == nil {
		tx.arena = arenas.Get().(*editArena)
	}
	return tx.arena
}

// releaseArena gives the transaction's arena back, once nothing will be
// undone.
func (tx *Tx) releaseArena() {
	a := tx.arena
	if a == nil {
		return
	}
	tx.arena = nil
	if cap(a.ops) > maxArenaOps {
		return
	}
	clear(a.undo)
	if len(a.changed) > maxArenaPages {
		a.changed = nil
	} else {
		clear(a.changed)
	}
	a.depth, a.ops, a.undo = 0, a.ops[:0], a.undo[:0]
	arenas.Put(a)
}

// enter returns the Writer of the next nesting depth: an Edit's callback
// may run an Edit of its own.
func (a *editArena) enter() *page.Writer {
	if a.depth == len(a.writers) {
		a.writers = append(a.writers, page.NewWriter(a.earlierFree))
	}
	a.depth++
	return a.writers[a.depth-1]
}

// earlierFree returns the free space page id had before the transaction
// first changed it, if it has: a Writer asks when it opens a new cell.
func (a *editArena) earlierFree(id page.ID) (page.Span, bool) {
	free, ok := a.changed[id]
	return free, ok
}

// noteChanged records that the transaction changed page id, and free as
// the free space the page had before, unless it changed the page before.
func (a *editArena) noteChanged(id page.ID, free page.Span) {
	if _, ok := a.changed[id]; ok {
		return
	}
	if a.changed == nil {
		a.changed = make(map[page.ID]page.Span)
	}
	a.changed[id] = free
}

// keep copies the operations of an update record into the arena, for
// undo.  A full arena starts a new block and leaves the old one to the
// records already in it.
func (a *editArena) keep(ops []byte) []byte {
	if cap(a.ops)-len(a.ops) < len(ops) {
		a.ops = make([]byte, 0, max(2*cap(a.ops), len(ops), 4<<10))
	}
	i := len(a.ops)
	a.ops = append(a.ops, ops...)
	return a.ops[i:len(a.ops):len(a.ops)]
}
