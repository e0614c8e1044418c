package btree

import (
	"encoding/binary"
	"fmt"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// Record leaf layout: a slotted page (package page) whose slots are kept in
// key order, one cell per record:
//
//	cell:  [key u64][value length u32][value]
//
// A cell may be longer than its record: an overwrite with a shorter value
// keeps the cell, and a later one may grow back into it.  The last sixteen
// bytes of the page hold the leaf's high key and its right sibling; the
// cells end before them.  The high key bounds the leaf's keys from above
// when it has a right sibling: it is the separator its parent holds for the
// sibling.
//
// Concurrency.  A record tree's descent peeks at the internal nodes (their
// locks last only the read: Tx.Peek) and locks the leaf, shared to read it
// or exclusive to write it, before it reads it.  Until then the leaf may
// have split, so an operation that finds its key at or above the leaf's
// high key moves right along the siblings.  No transaction therefore waits
// for a leaf while it holds a lock on the leaf's parent, which a writer
// must lock to split the leaf.  A writer that must split locks the
// ancestors it will change exclusively, bottom up, before it changes any
// of them, and checks that each still holds the node below; if one does
// not, a concurrent split moved that node, and the writer descends again.
const (
	recHeader  = 8 + 4
	recHighOff = page.Size - 16
	recNextOff = page.Size - 8

	// MaxValue is the largest value a record tree holds: its record and
	// slot fill an empty leaf.
	MaxValue = recHighOff - page.HeaderSize - page.SlotSize - recHeader
)

func recKey(buf page.Buf, i int) uint64 { return binary.LittleEndian.Uint64(buf.Cell(i)) }

func recValue(buf page.Buf, i int) []byte {
	cell := buf.Cell(i)
	return cell[recHeader : recHeader+binary.LittleEndian.Uint32(cell[8:])]
}

func recHigh(buf page.Buf) uint64 { return binary.LittleEndian.Uint64(buf[recHighOff:]) }

func recNext(buf page.Buf) page.ID {
	return page.ID(binary.LittleEndian.Uint64(buf[recNextOff:]))
}

// beyond reports whether key lies past the leaf, in a right sibling.
func beyond(buf page.Buf, key uint64) bool { return recNext(buf) != 0 && key >= recHigh(buf) }

func setRecSibling(w *page.Writer, high uint64, next page.ID) {
	w.PutUint64(recHighOff, high)
	w.PutUint64(recNextOff, uint64(next))
}

func putRecord(cell []byte, key uint64, val []byte) {
	binary.LittleEndian.PutUint64(cell, key)
	binary.LittleEndian.PutUint32(cell[8:], uint32(len(val)))
	copy(cell[recHeader:], val)
}

func initRecordLeaf(w *page.Writer, high uint64, next page.ID) {
	w.ClearSlots(recHighOff)
	setRecSibling(w, high, next)
}

// recRoom returns the bytes the leaf has for the cell of one more record,
// once compacted.
func recRoom(buf page.Buf) int {
	return recHighOff - page.HeaderSize - (buf.SlotCount()+1)*page.SlotSize - buf.CellBytes()
}

// CreateRecords allocates an empty record tree: a root internal node over
// one empty leaf.  The root is never a leaf, so a writer knows from the
// root's level mark where the leaves are before it reads any of them.
func CreateRecords(tx *engine.Tx, name string) (*Tree, error) {
	root, err := tx.Alloc(page.TypeBTreeInternal)
	if err != nil {
		return nil, fmt.Errorf("btree: creating %s: %w", name, err)
	}
	leaf, err := tx.Alloc(page.TypeRecordLeaf)
	if err != nil {
		return nil, fmt.Errorf("btree: creating %s: %w", name, err)
	}
	if err := tx.Edit(leaf, func(w *page.Writer) error {
		initRecordLeaf(w, 0, page.InvalidID)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tx.Edit(root, func(w *page.Writer) error {
		initInner(w, 1)
		setInnerChild(w, 0, leaf)
		return nil
	}); err != nil {
		return nil, err
	}
	return &Tree{name: name, root: root}, nil
}

// Lookup passes fn the value stored under key in a record tree and reports
// whether there is one.  The value aliases the page and is valid during the
// call only.
func (t *Tree) Lookup(tx *engine.Tx, key uint64, fn func(val []byte) error) (bool, error) {
	var stack [maxDepth]page.ID
	_, leaf, err := t.path(tx, key, true, stack[:0])
	found := false
	for err == nil && leaf != page.InvalidID {
		err = tx.Read(leaf, func(buf page.Buf) error {
			if beyond(buf, key) {
				leaf = recNext(buf)
				return nil
			}
			leaf = page.InvalidID
			i, ok := search(buf, key)
			if !ok {
				return nil
			}
			found = true
			return fn(recValue(buf, i))
		})
	}
	return found, err
}

// ScanRecords visits the records of a record tree with keys in [lo, hi] in
// ascending order.  The value aliases the page and is valid during the call
// only; fn may return ErrStopScan.
func (t *Tree) ScanRecords(tx *engine.Tx, lo, hi uint64, fn func(key uint64, val []byte) error) error {
	var stack [maxDepth]page.ID
	_, leaf, err := t.path(tx, lo, true, stack[:0])
	if err != nil {
		return err
	}
	// A leaf that split since the descent passes the scan on to its right
	// sibling like any other.
	return scan(tx, leaf, lo, hi, func(buf page.Buf, i int, key uint64) error {
		return fn(key, recValue(buf, i))
	})
}

// editLeaf runs fn on the leaf of a record tree that holds key, locked
// exclusively before it is read: the leaf the descent found, or a right
// sibling of it.  It returns that leaf.
func editLeaf(tx *engine.Tx, leaf page.ID, key uint64, fn func(w *page.Writer) error) (page.ID, error) {
	for {
		right := page.InvalidID
		err := tx.Edit(leaf, func(w *page.Writer) error {
			if beyond(w.Page(), key) {
				right = recNext(w.Page())
				return nil
			}
			return fn(w)
		})
		if err != nil || right == page.InvalidID {
			return leaf, err
		}
		leaf = right
	}
}

// Remove deletes key from a record tree, reporting whether it was there.
func (t *Tree) Remove(tx *engine.Tx, key uint64) (bool, error) {
	var stack [maxDepth]page.ID
	_, leaf, err := t.path(tx, key, true, stack[:0])
	if err != nil {
		return false, err
	}
	found := false
	_, err = editLeaf(tx, leaf, key, func(w *page.Writer) error {
		var i int
		if i, found = search(w.Page(), key); found {
			w.RemoveAt(i)
		}
		return nil
	})
	return found, err
}

// Put stores val under key in a record tree, replacing the value there.
// An overwrite that fits the record's cell is made in place; any other
// moves the record to a new cell in the same leaf, compacting the leaf
// first if its free space is scattered, and splits the leaf if the leaf
// has too little.
func (t *Tree) Put(tx *engine.Tx, key uint64, val []byte) error {
	if len(val) > MaxValue {
		return fmt.Errorf("btree: value of %d bytes in %s (max %d)", len(val), t.name, MaxValue)
	}
	size := recHeader + len(val)
	for {
		var stack [maxDepth]page.ID
		nodes, leaf, err := t.path(tx, key, true, stack[:0])
		if err != nil {
			return err
		}
		var (
			pos  int
			full bool
		)
		leaf, err = editLeaf(tx, leaf, key, func(w *page.Writer) error {
			buf := w.Page()
			i, found := search(buf, key)
			if found {
				if len(buf.Cell(i)) >= size {
					cell, err := w.Record(i)
					if err == nil {
						putRecord(cell, key, val)
					}
					return err
				}
				w.RemoveAt(i)
			}
			if recRoom(buf) < size {
				pos, full = i, true
				return nil
			}
			if buf.FreeSpace() < size {
				w.Compact(recHighOff)
			}
			cell, err := w.InsertAt(i, size)
			if err == nil {
				putRecord(cell, key, val)
			}
			return err
		})
		if err != nil || !full {
			return err
		}
		ok, err := lockAncestors(tx, nodes, leaf)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		split, again, err := t.splitRecordLeaf(tx, leaf, pos, key, val)
		if err == nil {
			err = t.registerSplit(tx, nodes, split)
		}
		if err != nil || !again {
			return err
		}
	}
}

// lockAncestors locks exclusively, bottom up, the internal nodes a split of
// leaf changes: its parent, the last of nodes, and each full node's parent.
// It reports false if one of them no longer holds the node below it, the
// leaf itself included: a split since the descent moved that node, and the
// caller must descend again.
func lockAncestors(tx *engine.Tx, nodes []page.ID, leaf page.ID) (bool, error) {
	child := leaf
	for i := len(nodes) - 1; i >= 0; i-- {
		var holds, full bool
		if err := tx.Edit(nodes[i], func(w *page.Writer) error {
			buf := w.Page()
			n := nodeCount(buf)
			for j := 0; j <= n && !holds; j++ {
				holds = innerChild(buf, j) == child
			}
			full = n >= MaxInnerEntries
			return nil
		}); err != nil || !holds || !full {
			return holds, err
		}
		child = nodes[i]
	}
	return true, nil
}

// splitRecordLeaf splits leaf id, which has no room for the record of
// (key, val) at position pos.  If the key sorts last, the leaf stays full
// and the new right sibling holds the record alone.  Otherwise the records
// and the new one are cut where the two halves come closest to equal in
// bytes.  When no cut leaves room for the new record on either side (it
// and its neighbours are large), the leaf is cut at pos without it, and
// again asks the caller to descend once more.
func (t *Tree) splitRecordLeaf(tx *engine.Tx, id page.ID, pos int, key uint64, val []byte) (*splitResult, bool, error) {
	size := recHeader + len(val)
	var image page.Buf
	if err := tx.Read(id, func(buf page.Buf) error {
		image = buf.Clone()
		return nil
	}); err != nil {
		return nil, false, err
	}
	n := image.SlotCount()
	rightID, err := tx.Alloc(page.TypeRecordLeaf)
	if err != nil {
		return nil, false, err
	}

	// The right sibling takes records cut to n, and the new record when
	// newRight is set; the leaf keeps records 0 to cut, and the new record
	// when newLeft is set.
	cut, newLeft, newRight := pos, false, pos == n
	if !newRight {
		if s, ok := recordCut(image, pos, size); ok {
			newLeft, newRight = s > pos, s <= pos
			cut = s
			if newLeft {
				cut = s - 1
			}
		}
	}
	sep := key
	if !newRight || cut < pos {
		sep = recKey(image, cut)
	}

	if err := tx.Edit(rightID, func(w *page.Writer) error {
		initRecordLeaf(w, recHigh(image), recNext(image))
		for j := cut; j < n; j++ {
			c := image.Cell(j)
			dst, err := w.InsertAt(j-cut, len(c))
			if err != nil {
				return err
			}
			copy(dst, c)
		}
		if !newRight {
			return nil
		}
		cell, err := w.InsertAt(pos-cut, size)
		if err == nil {
			putRecord(cell, key, val)
		}
		return err
	}); err != nil {
		return nil, false, err
	}
	if err := tx.Edit(id, func(w *page.Writer) error {
		if cut < n {
			for j := n - 1; j >= cut; j-- {
				w.RemoveAt(j)
			}
			w.Compact(recHighOff)
		}
		setRecSibling(w, sep, rightID)
		if !newLeft {
			return nil
		}
		cell, err := w.InsertAt(pos, size)
		if err == nil {
			putRecord(cell, key, val)
		}
		return err
	}); err != nil {
		return nil, false, err
	}
	return &splitResult{key: sep, right: rightID}, !newLeft && !newRight, nil
}

// recordCut chooses where to cut the records of a full leaf together with
// a new record of size bytes at position pos: the first s of the n+1 go
// left and the rest right.  It returns the s in [1, n] whose halves both
// fit a leaf and differ least in bytes, and false if there is none.
func recordCut(image page.Buf, pos, size int) (int, bool) {
	n := image.SlotCount()
	at := func(j int) int { // bytes of record j of the n+1, slot included
		switch {
		case j < pos:
			return len(image.Cell(j)) + page.SlotSize
		case j == pos:
			return size + page.SlotSize
		}
		return len(image.Cell(j-1)) + page.SlotSize
	}
	total := 0
	for j := 0; j <= n; j++ {
		total += at(j)
	}
	const capacity = recHighOff - page.HeaderSize
	best, bestGap, left := 0, 0, 0
	for s := 1; s <= n; s++ {
		left += at(s - 1)
		right := total - left
		if left > capacity || right > capacity {
			continue
		}
		if gap := abs(left - right); best == 0 || gap < bestGap {
			best, bestGap = s, gap
		}
	}
	return best, best != 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
