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
// nesting depth of Edit, copies of the operations of its update records and
// the undo list over them.  The first Edit or Modify takes one from a pool,
// and it goes back once commit or abort no longer needs the undo list; the
// log copies a record when it is appended, so nothing else refers to the
// arena by then.  An arena grown past maxArenaOps is left to the collector
// instead.
type editArena struct {
	depth   int
	writers []*page.Writer
	ops     []byte
	undo    []undoRecord
}

type undoRecord struct {
	pageID page.ID
	ops    []byte
	// free is the page's free space before the transaction changed it.
	free page.Span
}

const maxArenaOps = 64 << 10

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
	for _, u := range a.undo {
		if u.pageID == id {
			return u.free, true
		}
	}
	return page.Span{}, false
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
