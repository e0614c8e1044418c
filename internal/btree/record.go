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
// keeps the cell, and a later one may grow back into it.  The cells end
// before the leaf's high key and right sibling (btree.go).
const (
	recHeader = 8 + 4

	// MaxValue is the largest value a record tree holds: its record and
	// slot fill an empty leaf.
	MaxValue = highOff - page.HeaderSize - page.SlotSize - recHeader
)

func recKey(buf page.Buf, i int) uint64 { return binary.LittleEndian.Uint64(buf.Cell(i)) }

func recValue(buf page.Buf, i int) []byte {
	cell := buf.Cell(i)
	return cell[recHeader : recHeader+binary.LittleEndian.Uint32(cell[8:])]
}

func putRecord(cell []byte, key uint64, val []byte) {
	binary.LittleEndian.PutUint64(cell, key)
	binary.LittleEndian.PutUint32(cell[8:], uint32(len(val)))
	copy(cell[recHeader:], val)
}

func initRecordLeaf(w *page.Writer, high uint64, right page.ID) {
	w.ClearSlots(highOff)
	setSibling(w, high, right)
}

// recRoom returns the bytes the leaf has for the cell of one more record,
// once compacted.
func recRoom(buf page.Buf) int {
	return highOff - page.HeaderSize - (buf.SlotCount()+1)*page.SlotSize - buf.CellBytes()
}

// CreateRecords allocates an empty record tree.
func CreateRecords(tx *engine.Tx, name string) (*Tree, error) {
	return create(tx, name, page.TypeRecordLeaf)
}

// Lookup passes fn the value stored under key in a record tree and reports
// whether there is one.  The value aliases the page and is valid during the
// call only.
func (t *Tree) Lookup(tx *engine.Tx, key uint64, fn func(val []byte) error) (bool, error) {
	return t.readLeaf(tx, key, func(buf page.Buf, i int) error { return fn(recValue(buf, i)) })
}

// ScanRecords visits the records of a record tree with keys in [lo, hi] in
// ascending order.  The value aliases the page and is valid during the call
// only; fn may return ErrStopScan.
func (t *Tree) ScanRecords(tx *engine.Tx, lo, hi uint64, fn func(key uint64, val []byte) error) error {
	return t.scan(tx, lo, hi, func(buf page.Buf, i int, key uint64) error {
		return fn(key, recValue(buf, i))
	})
}

// Remove deletes key from a record tree, reporting whether it was there.
func (t *Tree) Remove(tx *engine.Tx, key uint64) (bool, error) {
	var stack [maxDepth]page.ID
	_, leaf, err := t.path(tx, key, stack[:0])
	if err != nil {
		return false, err
	}
	found := false
	_, _, err = editLeaf(tx, leaf, key, func(w *page.Writer) error {
		var i int
		if i, found = search(w.Page(), key); found {
			w.RemoveAt(i)
		}
		return nil
	})
	return found, err
}

// Put stores val under key in a record tree, replacing the value there:
// PutRun of one pair.
func (t *Tree) Put(tx *engine.Tx, key uint64, val []byte) error {
	return t.PutRun(tx, []uint64{key}, [][]byte{val})
}

// PutRun stores vals[i] under keys[i] for every i, replacing the values
// there, and leaves the leaves byte for byte as calls of Put in that order
// would: keys must ascend strictly.  An overwrite that fits the record's
// cell is made in place; any other moves the record to a new cell in the
// same leaf, compacting the leaf first if its free space is scattered, and
// splits the leaf if the leaf has too little.  The pairs that go into one
// leaf go in one Edit, logged as one update record, until one needs a
// split: a run that fills a leaf costs one record, not one per key.
func (t *Tree) PutRun(tx *engine.Tx, keys []uint64, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("btree: run into %s has %d keys and %d values", t.name, len(keys), len(vals))
	}
	for i, val := range vals {
		if len(val) > MaxValue {
			return fmt.Errorf("btree: value of %d bytes in %s (max %d)", len(val), t.name, MaxValue)
		}
		if i > 0 && keys[i] <= keys[i-1] {
			return fmt.Errorf("btree: run into %s does not ascend at %d: %d after %d", t.name, i, keys[i], keys[i-1])
		}
	}
	for len(keys) > 0 {
		// n is how many pairs this step stored: putLeaf's, or the one a
		// split stored.
		n := 0
		err := t.insert(tx, keys[0], func(w *page.Writer) (int, bool, error) {
			var (
				pos  int
				full bool
				err  error
			)
			n, pos, full, err = putLeaf(w, keys, vals)
			return pos, full, err
		}, func(leaf page.ID, image page.Buf, pos int) (*splitResult, bool, error) {
			s, again, err := splitRecordLeaf(tx, leaf, image, pos, keys[0], vals[0])
			if !again {
				n = 1
			}
			return s, again, err
		})
		if err != nil {
			return err
		}
		keys, vals = keys[n:], vals[n:]
	}
	return nil
}

// putLeaf stores into a record leaf, which holds keys[0]'s range, the
// pairs from the first on while their keys lie in the leaf and their
// records fit it, each as Put would, and returns how many it stored.
// When the first does not fit, it stores none and reports full and the
// first key's position, having removed the record the key had, as Put
// does before a split.
func putLeaf(w *page.Writer, keys []uint64, vals [][]byte) (n, pos int, full bool, err error) {
	buf := w.Page()
	for ; n < len(keys); n++ {
		key, val := keys[n], vals[n]
		if n > 0 && beyond(buf, key) {
			return n, 0, false, nil
		}
		size := recHeader + len(val)
		i, found := search(buf, key)
		if found && len(buf.Cell(i)) >= size {
			cell, err := w.Record(i)
			if err != nil {
				return n, 0, false, err
			}
			putRecord(cell, key, val)
			continue
		}
		room := recRoom(buf)
		if found {
			room += len(buf.Cell(i)) + page.SlotSize
		}
		if room < size && n > 0 {
			return n, 0, false, nil
		}
		if found {
			w.RemoveAt(i)
		}
		if room < size {
			return 0, i, true, nil
		}
		if buf.FreeSpace() < size {
			w.Compact(highOff)
		}
		cell, err := w.InsertAt(i, size)
		if err != nil {
			return n, 0, false, err
		}
		putRecord(cell, key, val)
	}
	return n, 0, false, nil
}

// splitRecordLeaf splits leaf id, whose copy is image, which has no room
// for the record of (key, val) at position pos.  If the key sorts last,
// the leaf stays full and the new right sibling holds the record alone.
// Otherwise the records and the new one are cut where the two halves come
// closest to equal in bytes.  When no cut leaves room for the new record on either side (it
// and its neighbours are large), the leaf is cut at pos without it, and
// again asks the caller to descend once more.
func splitRecordLeaf(tx *engine.Tx, id page.ID, image page.Buf, pos int, key uint64, val []byte) (*splitResult, bool, error) {
	size := recHeader + len(val)
	n := image.SlotCount()

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

	rightID, err := tx.AllocEdit(page.TypeRecordLeaf, func(w *page.Writer) error {
		initRecordLeaf(w, highKey(image), next(image))
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
	})
	if err != nil {
		return nil, false, err
	}
	if err := tx.Edit(id, func(w *page.Writer) error {
		if cut < n {
			for j := n - 1; j >= cut; j-- {
				w.RemoveAt(j)
			}
			w.Compact(highOff)
		}
		setSibling(w, sep, rightID)
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
	const capacity = highOff - page.HeaderSize
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
