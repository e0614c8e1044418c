// Package btree implements disk-resident B+trees over uint64 keys.  A tree
// has one of two kinds of leaf.  A RID tree's leaves map each key to a
// record id: it provides the primary-key indexes of the TPC-C tables, whose
// records live in heap pages.  A record tree's leaves hold the records
// themselves, key, value length and value (record.go): it holds every kv
// namespace, so a lookup reads no page beyond the leaf.  Internal nodes, the
// descent, and the splits of internal nodes and of the root are the same
// for both kinds.
//
// Node pages live in the database like any other page: all access goes
// through engine transactions, so index traffic competes for the DRAM
// buffer and the flash cache exactly as table traffic does — the hot inner
// nodes are precisely the kind of warm pages the paper's flash cache keeps
// close.
//
// The root page id never changes: when the root splits, its content moves
// to two freshly allocated children and the root becomes their parent.
// Deletes are lazy (no rebalancing), which is all the TPC-C Delivery
// transaction needs.
//
// A full node splits in the middle, unless the key that overflows it sorts
// after all of its keys: then the node stays full and its new right sibling
// starts with that key alone (a leaf) or with that one child (an internal
// node).  Every index here grows in key order — the kv preload, fresh kv
// keys, TPC-C's order ids within a district — so this keeps their pages
// full instead of half empty.  The rule is similar to PostgreSQL nbtree's
// rightmost-page split, but it applies to any node where the new key sorts
// last, not only the rightmost of its level: each TPC-C district's newest
// orders go at the end of a leaf that has a right sibling.  Inserts into
// the gaps between such leaves can leave one-key leaves, no worse than
// 50/50 splits in the worst case.  Random inserts still split 50/50.
//
// Locking.  A RID tree's operations take a shared lock on every node they
// pass, held to the end of the transaction, and a writer upgrades it on
// the leaf and on each node a split changes.  A record tree's descent
// peeks at the internal nodes instead, and locks the leaf before reading
// it (record.go); each of its internal nodes carries its level, so the
// descent knows which child is a leaf.  RID trees carry no level: their
// pages are the ones TPC-C has always written.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// Errors returned by the tree.
var (
	ErrDuplicate = errors.New("btree: duplicate key")
	ErrNotFound  = errors.New("btree: key not found")
)

// Node layout (within the page payload):
//
//	leaf:     [count u16][next u64] then count * (key u64, rid 10 bytes)
//	internal: [count u16] then (count+1) * child u64 interleaved with
//	          count * key u64:  child0 key0 child1 key1 ... childN
//
// Keys in an internal node separate children: child i holds keys < key i,
// child i+1 holds keys >= key i.  An internal node of a record tree keeps
// its level in the last two bytes of the page: 1 when its children are
// leaves, one more for each level above.  In a RID tree they are 0.
const (
	leafHeader     = 2 + 8
	leafEntrySize  = 8 + 10
	innerHeader    = 2
	innerEntrySize = 8 + 8 // key + child (plus one extra child pointer)

	// MaxLeafEntries and MaxInnerEntries are exported for tests and for
	// sizing databases.
	MaxLeafEntries  = (page.PayloadSize - leafHeader) / leafEntrySize
	MaxInnerEntries = (page.PayloadSize - innerHeader - 8 - 2) / innerEntrySize
)

// Tree is a B+tree handle.  The root page id is fixed for the lifetime of
// the tree.
type Tree struct {
	name string
	root page.ID
}

// Create allocates an empty RID tree (a single empty leaf serving as root).
func Create(tx *engine.Tx, name string) (*Tree, error) {
	root, err := tx.Alloc(page.TypeBTreeLeaf)
	if err != nil {
		return nil, fmt.Errorf("btree: creating %s: %w", name, err)
	}
	err = tx.Edit(root, func(w *page.Writer) error {
		initLeaf(w, 0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Tree{name: name, root: root}, nil
}

// Attach reconstructs a handle from a known root page.
func Attach(name string, root page.ID) *Tree { return &Tree{name: name, root: root} }

// Name returns the index name.
func (t *Tree) Name() string { return t.name }

// Root returns the root page id.
func (t *Tree) Root() page.ID { return t.root }

// --- node accessors -------------------------------------------------------
//
// Readers take the page image; writers take the page.Writer of an Edit and
// page offsets, which the *Off functions compute.

const (
	countOff = page.HeaderSize
	nextOff  = page.HeaderSize + 2
	levelOff = page.Size - 2
)

// leafOff is the page offset of leaf entry i.
func leafOff(i int) int { return page.HeaderSize + leafHeader + i*leafEntrySize }

// innerChildOff and innerKeyOff are the page offsets of inner child i and
// of inner key i.
func innerChildOff(i int) int { return page.HeaderSize + innerHeader + i*innerEntrySize }

func innerKeyOff(i int) int { return innerChildOff(i) + 8 }

func initLeaf(w *page.Writer, next page.ID) {
	w.SetType(page.TypeBTreeLeaf)
	w.PutUint16(countOff, 0)
	w.PutUint64(nextOff, uint64(next))
}

// initInner formats an empty internal node at the given level (0 in a RID
// tree, where it is not written).
func initInner(w *page.Writer, level int) {
	w.SetType(page.TypeBTreeInternal)
	w.PutUint16(countOff, 0)
	if level > 0 {
		w.PutUint16(levelOff, uint16(level))
	}
}

func nodeCount(buf page.Buf) int { return int(binary.LittleEndian.Uint16(buf[countOff:])) }

func setNodeCount(w *page.Writer, n int) { w.PutUint16(countOff, uint16(n)) }

// innerLevel returns the level of an internal node: 1 above the leaves of
// a record tree, 0 anywhere in a RID tree.
func innerLevel(buf page.Buf) int { return int(binary.LittleEndian.Uint16(buf[levelOff:])) }

func leafNext(buf page.Buf) page.ID { return page.ID(binary.LittleEndian.Uint64(buf[nextOff:])) }

func setLeafNext(w *page.Writer, next page.ID) { w.PutUint64(nextOff, uint64(next)) }

func leafKey(buf page.Buf, i int) uint64 { return binary.LittleEndian.Uint64(buf[leafOff(i):]) }

func leafRID(buf page.Buf, i int) page.RID { return page.DecodeRID(buf[leafOff(i)+8:]) }

func setLeafEntry(w *page.Writer, i int, key uint64, rid page.RID) {
	e := w.Bytes(leafOff(i), leafEntrySize)
	binary.LittleEndian.PutUint64(e, key)
	enc := page.EncodeRID(rid)
	copy(e[8:], enc[:])
}

func innerChild(buf page.Buf, i int) page.ID {
	return page.ID(binary.LittleEndian.Uint64(buf[innerChildOff(i):]))
}

func setInnerChild(w *page.Writer, i int, child page.ID) {
	w.PutUint64(innerChildOff(i), uint64(child))
}

func innerKey(buf page.Buf, i int) uint64 { return binary.LittleEndian.Uint64(buf[innerKeyOff(i):]) }

func setInnerKey(w *page.Writer, i int, key uint64) { w.PutUint64(innerKeyOff(i), key) }

// The two leaf kinds, read alike: isLeaf tells a leaf of either kind, and
// entries, keyAt, search and next read one without knowing which.  keyAt
// takes the kind (rec: a record leaf) from its caller, which looks it up
// once per leaf rather than once per key.

func isLeaf(buf page.Buf) bool {
	return buf.Type() == page.TypeBTreeLeaf || buf.Type() == page.TypeRecordLeaf
}

func entries(buf page.Buf) int {
	if buf.Type() == page.TypeRecordLeaf {
		return buf.SlotCount()
	}
	return nodeCount(buf)
}

func keyAt(buf page.Buf, rec bool, i int) uint64 {
	if rec {
		return recKey(buf, i)
	}
	return leafKey(buf, i)
}

func next(buf page.Buf) page.ID {
	if buf.Type() == page.TypeRecordLeaf {
		return recNext(buf)
	}
	return leafNext(buf)
}

// search returns the position of key in a leaf of either kind and whether
// it is present.  When absent, the position is where it would be inserted.
func search(buf page.Buf, key uint64) (int, bool) {
	rec := buf.Type() == page.TypeRecordLeaf
	lo, hi := 0, entries(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		switch k := keyAt(buf, rec, mid); {
		case k == key:
			return mid, true
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// --- lookup ----------------------------------------------------------------

// Get returns the RID stored under key.
func (t *Tree) Get(tx *engine.Tx, key uint64) (page.RID, bool, error) {
	var (
		rid   page.RID
		found bool
	)
	for id := t.root; id != page.InvalidID; {
		err := tx.Read(id, func(buf page.Buf) error {
			if !isLeaf(buf) {
				id = childFor(buf, key)
				return nil
			}
			var i int
			if i, found = search(buf, key); found {
				rid = leafRID(buf, i)
			}
			id = page.InvalidID
			return nil
		})
		if err != nil {
			return page.RID{}, false, err
		}
	}
	return rid, found, nil
}

// childFor returns the child page to follow for key in an internal node.
func childFor(buf page.Buf, key uint64) page.ID {
	n := nodeCount(buf)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(buf, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return innerChild(buf, lo)
}

// maxDepth is the height of tree whose descent keeps its path on the
// stack; a deeper one's spills to the heap.
const maxDepth = 16

// path descends from the root to the leaf for key.  It returns the
// internal nodes on the way, the root first, and the leaf.  A RID tree's
// descent reads every node, the leaf too (it cannot tell a leaf before
// reading it), under shared locks held to the end of the transaction.  A
// record tree's descent (peek) reads the internal nodes with Tx.Peek,
// whose locks last only the read, and stops at the child of the node
// marked level 1 without touching it: what it found may be stale by the
// time the caller locks the leaf (see record.go).
func (t *Tree) path(tx *engine.Tx, key uint64, peek bool, nodes []page.ID) ([]page.ID, page.ID, error) {
	id := t.root
	for {
		var (
			child           page.ID
			leaf, childLeaf bool
		)
		read := func(buf page.Buf) error {
			if leaf = isLeaf(buf); !leaf {
				child, childLeaf = childFor(buf, key), innerLevel(buf) == 1
			}
			return nil
		}
		var err error
		if peek {
			err = tx.Peek(id, read)
		} else {
			err = tx.Read(id, read)
		}
		if err != nil || leaf {
			return nodes, id, err
		}
		nodes = append(nodes, id)
		if childLeaf {
			return nodes, child, nil
		}
		id = child
	}
}

// findLeaf returns the leaf of a RID tree for key.
func (t *Tree) findLeaf(tx *engine.Tx, key uint64) (page.ID, error) {
	var stack [maxDepth]page.ID
	_, leaf, err := t.path(tx, key, false, stack[:0])
	return leaf, err
}

// --- insert ----------------------------------------------------------------

// splitResult describes a child split that must be registered in the parent.
type splitResult struct {
	key   uint64
	right page.ID
}

// Insert adds key -> rid to the tree.  Inserting an existing key returns
// ErrDuplicate.
func (t *Tree) Insert(tx *engine.Tx, key uint64, rid page.RID) error {
	var stack [maxDepth]page.ID
	nodes, leaf, err := t.path(tx, key, false, stack[:0])
	if err != nil {
		return err
	}
	split, err := t.insertIntoLeaf(tx, leaf, key, rid)
	if err != nil || split == nil {
		return err
	}
	return t.registerSplit(tx, nodes, split)
}

// registerSplit inserts the separator of a split child into the last of
// nodes, its parent, splitting that in turn as needed, up to the root.
func (t *Tree) registerSplit(tx *engine.Tx, nodes []page.ID, split *splitResult) error {
	for i := len(nodes) - 1; i >= 0; i-- {
		var err error
		if split, err = t.insertIntoInner(tx, nodes[i], split); err != nil || split == nil {
			return err
		}
	}
	return t.splitRoot(tx, split)
}

// splitRoot keeps the root page in place: it moves the root's content to a
// new left sibling of split.right and turns the root into an internal node
// over (left, split.key, split.right), one level higher.
func (t *Tree) splitRoot(tx *engine.Tx, split *splitResult) error {
	leftID, err := tx.Alloc(page.TypeBTreeInternal)
	if err != nil {
		return err
	}
	var rootImage page.Buf
	if err := tx.Read(t.root, func(buf page.Buf) error {
		rootImage = buf.Clone()
		return nil
	}); err != nil {
		return err
	}
	if err := tx.Edit(leftID, func(w *page.Writer) error {
		copy(w.Bytes(page.HeaderSize, page.PayloadSize), rootImage.Payload())
		w.SetType(rootImage.Type())
		return nil
	}); err != nil {
		return err
	}
	level := 0
	if !isLeaf(rootImage) && innerLevel(rootImage) > 0 {
		level = innerLevel(rootImage) + 1
	}
	return tx.Edit(t.root, func(w *page.Writer) error {
		initInner(w, level)
		setNodeCount(w, 1)
		setInnerChild(w, 0, leftID)
		setInnerKey(w, 0, split.key)
		setInnerChild(w, 1, split.right)
		return nil
	})
}

func (t *Tree) insertIntoLeaf(tx *engine.Tx, id page.ID, key uint64, rid page.RID) (*splitResult, error) {
	var (
		needSplit, atEnd bool
		next             page.ID
	)
	err := tx.Edit(id, func(w *page.Writer) error {
		buf := w.Page()
		pos, found := search(buf, key)
		if found {
			return fmt.Errorf("%w: %d in %s", ErrDuplicate, key, t.name)
		}
		n := nodeCount(buf)
		if n >= MaxLeafEntries {
			needSplit, atEnd, next = true, pos == n, leafNext(buf)
			return nil
		}
		// Shift entries right and insert.
		w.Move(leafOff(pos+1), leafOff(pos), (n-pos)*leafEntrySize)
		setLeafEntry(w, pos, key, rid)
		setNodeCount(w, n+1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !needSplit {
		return nil, nil
	}

	rightID, err := tx.Alloc(page.TypeBTreeLeaf)
	if err != nil {
		return nil, err
	}
	if atEnd {
		// The key sorts after every key of the full leaf: leave the leaf
		// full and start the right sibling with the key alone.
		if err := tx.Edit(rightID, func(w *page.Writer) error {
			initLeaf(w, next)
			setLeafEntry(w, 0, key, rid)
			setNodeCount(w, 1)
			return nil
		}); err != nil {
			return nil, err
		}
		if err := tx.Edit(id, func(w *page.Writer) error {
			setLeafNext(w, rightID)
			return nil
		}); err != nil {
			return nil, err
		}
		return &splitResult{key: key, right: rightID}, nil
	}

	// Split the leaf in the middle: move the upper half to the right
	// sibling, then retry the insert into the appropriate half.
	var splitKey uint64
	var leftImage page.Buf
	if err := tx.Read(id, func(buf page.Buf) error {
		leftImage = buf.Clone()
		return nil
	}); err != nil {
		return nil, err
	}
	n := nodeCount(leftImage)
	half := n / 2
	splitKey = leafKey(leftImage, half)

	if err := tx.Edit(rightID, func(w *page.Writer) error {
		initLeaf(w, leafNext(leftImage))
		copy(w.Bytes(leafOff(0), (n-half)*leafEntrySize), leftImage[leafOff(half):leafOff(n)])
		setNodeCount(w, n-half)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tx.Edit(id, func(w *page.Writer) error {
		setNodeCount(w, half)
		setLeafNext(w, rightID)
		return nil
	}); err != nil {
		return nil, err
	}

	target := id
	if key >= splitKey {
		target = rightID
	}
	if _, err := t.insertIntoLeaf(tx, target, key, rid); err != nil {
		return nil, err
	}
	return &splitResult{key: splitKey, right: rightID}, nil
}

func (t *Tree) insertIntoInner(tx *engine.Tx, id page.ID, split *splitResult) (*splitResult, error) {
	var needSplit, atEnd bool
	var level int
	err := tx.Edit(id, func(w *page.Writer) error {
		buf := w.Page()
		if n := nodeCount(buf); n >= MaxInnerEntries {
			needSplit, atEnd, level = true, split.key > innerKey(buf, n-1), innerLevel(buf)
			return nil
		}
		insertInnerEntry(w, split.key, split.right)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !needSplit {
		return nil, nil
	}

	rightID, err := tx.Alloc(page.TypeBTreeInternal)
	if err != nil {
		return nil, err
	}
	if atEnd {
		// The new child sorts after every key of the full node: leave the
		// node whole and give the right node no keys and that one child.
		if err := tx.Edit(rightID, func(w *page.Writer) error {
			initInner(w, level)
			setInnerChild(w, 0, split.right)
			return nil
		}); err != nil {
			return nil, err
		}
		return &splitResult{key: split.key, right: rightID}, nil
	}

	// Split the internal node around its median key.
	var image page.Buf
	if err := tx.Read(id, func(buf page.Buf) error {
		image = buf.Clone()
		return nil
	}); err != nil {
		return nil, err
	}
	n := nodeCount(image)
	mid := n / 2
	upKey := innerKey(image, mid)

	if err := tx.Edit(rightID, func(w *page.Writer) error {
		initInner(w, level)
		// Children mid+1 to n and the keys between them, which alternate
		// in the node, become the right node's.
		rightCount := n - mid - 1
		setNodeCount(w, rightCount)
		copy(w.Bytes(innerChildOff(0), rightCount*innerEntrySize+8), image[innerChildOff(mid+1):innerKeyOff(n)])
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tx.Edit(id, func(w *page.Writer) error {
		setNodeCount(w, mid)
		return nil
	}); err != nil {
		return nil, err
	}

	target := id
	if split.key >= upKey {
		target = rightID
	}
	if err := tx.Edit(target, func(w *page.Writer) error {
		insertInnerEntry(w, split.key, split.right)
		return nil
	}); err != nil {
		return nil, err
	}
	return &splitResult{key: upKey, right: rightID}, nil
}

// insertInnerEntry inserts (key, rightChild) into an internal node with
// space available.
func insertInnerEntry(w *page.Writer, key uint64, right page.ID) {
	buf := w.Page()
	n := nodeCount(buf)
	pos := 0
	for pos < n && innerKey(buf, pos) <= key {
		pos++
	}
	// Shift keys and children right of pos: key i and child i+1 are
	// adjacent, so the pairs from pos on move by one entry together.
	w.Move(innerKeyOff(pos+1), innerKeyOff(pos), (n-pos)*innerEntrySize)
	setInnerKey(w, pos, key)
	setInnerChild(w, pos+1, right)
	setNodeCount(w, n+1)
}

// --- delete ----------------------------------------------------------------

// Delete removes key from the tree (lazy: leaves may underflow).
func (t *Tree) Delete(tx *engine.Tx, key uint64) error {
	leaf, err := t.findLeaf(tx, key)
	if err != nil {
		return err
	}
	return tx.Edit(leaf, func(w *page.Writer) error {
		buf := w.Page()
		pos, found := search(buf, key)
		if !found {
			return fmt.Errorf("%w: %d in %s", ErrNotFound, key, t.name)
		}
		n := nodeCount(buf)
		w.Move(leafOff(pos), leafOff(pos+1), (n-pos-1)*leafEntrySize)
		setNodeCount(w, n-1)
		return nil
	})
}

// --- range scan -------------------------------------------------------------

// ErrStopScan stops a Scan early without reporting an error.
var ErrStopScan = errors.New("btree: stop scan")

// Scan visits keys in [lo, hi] in ascending order.
func (t *Tree) Scan(tx *engine.Tx, lo, hi uint64, fn func(key uint64, rid page.RID) error) error {
	leaf, err := t.findLeaf(tx, lo)
	if err != nil {
		return err
	}
	return scan(tx, leaf, lo, hi, func(buf page.Buf, i int, key uint64) error {
		return fn(key, leafRID(buf, i))
	})
}

// scan visits the entries of keys in [lo, hi] in ascending order, from
// leaf on along the next links, passing fn the leaf, the entry's position
// and its key.
func scan(tx *engine.Tx, leaf page.ID, lo, hi uint64, fn func(buf page.Buf, i int, key uint64) error) error {
	for leaf != page.InvalidID {
		stop := false
		err := tx.Read(leaf, func(buf page.Buf) error {
			start, _ := search(buf, lo)
			rec, n := buf.Type() == page.TypeRecordLeaf, entries(buf)
			for i := start; i < n; i++ {
				k := keyAt(buf, rec, i)
				if k > hi {
					stop = true
					return nil
				}
				if err := fn(buf, i, k); err != nil {
					return err
				}
			}
			leaf = next(buf)
			return nil
		})
		if errors.Is(err, ErrStopScan) {
			return nil
		}
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// Height returns the height of the tree (1 for a single leaf).  It is used
// by tests and diagnostics.
func (t *Tree) Height(tx *engine.Tx) (int, error) {
	h := 1
	id := t.root
	for {
		var (
			leaf bool
			next page.ID
		)
		if err := tx.Read(id, func(buf page.Buf) error {
			if isLeaf(buf) {
				leaf = true
				return nil
			}
			next = innerChild(buf, 0)
			return nil
		}); err != nil {
			return 0, err
		}
		if leaf {
			return h, nil
		}
		h++
		id = next
	}
}
