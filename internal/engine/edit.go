package engine

import (
	"fmt"
	"sync"

	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// Edit pins the page, lets fn change it through a page.Writer, logs what
// changed as one update record (a list of edits), stamps the page LSN and
// marks the page dirty.  The Writer saves the bytes fn declares before it
// writes them, and only the windows around those are diffed, with a
// Writer.Move that is fn's only one taken as a shift without searching for
// it.  The record is the one the full-page differ, diffMoved, would log
// (race builds check it on every Edit).  If fn changes nothing, nothing is
// logged; if it returns an error, what it wrote is put back and nothing is
// logged.
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
	full := fullImage(buf)
	err = fn(w)
	a.depth--
	if err != nil {
		w.Restore()
		return err
	}
	m := movedBy(w)
	edits := a.diff(w.Before(), buf, m, w.Windows())
	checkWindowed(full, buf, m, edits)
	if logged, err := tx.logUpdate(id, buf, edits); err != nil {
		if !logged {
			w.Restore()
		}
		return err
	}
	return nil
}

// movedBy returns the move w's edit declared, if it made exactly one.
func movedBy(w *page.Writer) move {
	if dst, src, n, ok := w.Moved(); ok {
		return move{dst, src, n}
	}
	return move{}
}

// A Writer's windows lie more than page.WindowGap bytes apart.  Regions the
// differ logs apart are more than maxShift unchanged bytes apart, so windows
// that far apart never split one.  This fails to compile if the gap is ever
// made smaller than 2*maxShift.
const _ = uint(page.WindowGap - 2*maxShift)

// editArena is what one transaction's page edits are made in: a Writer
// (with its before image) per nesting depth of Edit, the images and edit
// lists of its update records, and the undo list over them.  The first Edit
// or Modify takes one from a pool, and it goes back once commit or abort no
// longer needs the undo list; the log copies a record when it is appended,
// so nothing else refers to the arena by then.  An arena grown past
// maxArenaImages or maxArenaEdits is left to the collector instead.
type editArena struct {
	depth   int
	writers []*page.Writer
	images  []byte
	edits   []wal.Edit
	undo    []undoRecord
}

type undoRecord struct {
	pageID page.ID
	edits  []wal.Edit
}

const (
	maxArenaImages = 64 << 10
	maxArenaEdits  = 1 << 10
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
	if cap(a.images) > maxArenaImages || cap(a.edits) > maxArenaEdits {
		return
	}
	clear(a.edits)
	clear(a.undo)
	a.depth, a.images, a.edits, a.undo = 0, a.images[:0], a.edits[:0], a.undo[:0]
	arenas.Put(a)
}

// enter returns the Writer of the next nesting depth: an Edit's callback
// may run an Edit of its own.
func (a *editArena) enter() *page.Writer {
	if a.depth == len(a.writers) {
		a.writers = append(a.writers, page.NewWriter())
	}
	a.depth++
	return a.writers[a.depth-1]
}

// alloc returns room for n image bytes (empty, of capacity n) and k edits.
// A nil arena allocates them afresh.  A full arena starts a new block and
// leaves the old one to the edits already made in it.
func (a *editArena) alloc(n, k int) ([]byte, []wal.Edit) {
	if a == nil {
		return make([]byte, 0, n), make([]wal.Edit, k)
	}
	if cap(a.images)-len(a.images) < n {
		a.images = make([]byte, 0, max(2*cap(a.images), n, 4<<10))
	}
	if cap(a.edits)-len(a.edits) < k {
		a.edits = make([]wal.Edit, 0, max(2*cap(a.edits), k, 64))
	}
	i, j := len(a.images), len(a.edits)
	a.images, a.edits = a.images[:i+n], a.edits[:j+k]
	return a.images[i : i : i+n], a.edits[j : j+k : j+k]
}

// diff returns the edits that turn before into after, given that the two
// agree outside the windows: the differ runs over the windows only, and the
// edits are diffMoved's of the whole page, because a region the differ logs
// ends where more than maxShift unchanged bytes follow and windows lie
// farther apart than that.  A move that holds becomes one shift edit, and
// the windows are diffed above and below it.
func (a *editArena) diff(before, after page.Buf, m move, wins []page.Window) []wal.Edit {
	var stack [16]span
	spans := stack[:0]
	s, shifted := m.shift(before, after)
	// Spans are found last first: the windows above the shift, top down,
	// the shift, then the windows below it.  Without a shift, s is empty
	// at 0 and everything lies above it.
	for i := len(wins) - 1; i >= 0; i-- {
		if lo := max(wins[i].Lo, s.hi); lo < wins[i].Hi {
			spans = diffRange(spans, before, after, lo, wins[i].Hi)
		}
	}
	if shifted {
		spans = append(spans, s)
		for i := len(wins) - 1; i >= 0; i-- {
			if hi := min(wins[i].Hi, s.lo); wins[i].Lo < hi {
				spans = diffRange(spans, before, after, wins[i].Lo, hi)
			}
		}
	}
	return a.editsOf(before, after, spans)
}
