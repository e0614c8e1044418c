// Package btree implements disk-resident B+trees over uint64 keys.  A tree
// has one of two kinds of leaf.  A RID tree's leaves map each key to a
// record id: it provides the primary-key indexes of the TPC-C tables, whose
// records live in heap pages.  A record tree's leaves hold the records
// themselves, key, value length and value (record.go): it holds every kv
// namespace, so a lookup reads no page beyond the leaf.  Everything else —
// internal nodes, the leaves' high keys and right siblings, the descent,
// the locking and the splits of internal nodes and of the root — is the
// same for both kinds.
//
// Node pages live in the database like any other page: all access goes
// through engine transactions, so index traffic competes for the DRAM
// buffer and the flash cache exactly as table traffic does — the hot inner
// nodes are precisely the kind of warm pages the paper's flash cache keeps
// close.
//
// The root page id never changes: when the root splits, its content moves
// to two freshly allocated children and the root becomes their parent.
// The root is never a leaf: a new tree is a root at level 1 over one empty
// leaf.  Deletes are lazy (no rebalancing), which is all the TPC-C
// Delivery transaction needs.
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
// Locking, after Lehman and Yao.  A descent peeks at the internal nodes
// (their locks last only the read: Tx.Peek) and locks the leaf, shared to
// read it or exclusive to write it, before it reads it; each internal node
// carries its level, so the descent knows which child is a leaf.  Until
// the leaf is locked it may have split, so an operation that finds its key
// at or above the leaf's high key moves right along the siblings.  No
// transaction therefore waits for a leaf while it holds a lock on the
// leaf's parent, which a writer must lock to split the leaf, and no
// operation upgrades a lock it took itself.  A writer that must split
// locks the ancestors it will change exclusively, bottom up, before it
// changes any of them, and checks that each still holds the node below; if
// one does not, a concurrent split moved that node, and the writer
// descends again, having given back the ancestors it locked.
//
// Logging.  Every change to a node is one Tx.Edit, which logs one update
// record, and every new node one Tx.AllocEdit, which logs its formatting and
// its contents as one redo-only format record: a split logs three records,
// the new node, the cut node and the parent.  Undoing a split's other two
// orphans the new node, which nothing else reaches before commit.  InsertRun puts the keys of an ascending run that go into one
// gap of a leaf into it in one Edit, so a run that extends a leaf logs one
// record for it, not one per key, and leaves the tree in the shape Insert
// key by key would.  PutRun, its record-tree twin, puts every pair of an
// ascending run that goes into one leaf in one Edit, and Put is PutRun of
// one pair.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// ErrDuplicate is returned by Insert for a key the tree holds.
var ErrDuplicate = errors.New("btree: duplicate key")

// Node layout (within the page payload):
//
//	RID leaf: [count u16] then count * (key u64, rid 10 bytes)
//	internal: [count u16] then (count+1) * child u64 interleaved with
//	          count * key u64:  child0 key0 child1 key1 ... childN
//
// The last sixteen bytes of a leaf of either kind hold its high key and its
// right sibling (0 for the rightmost leaf).  The high key bounds the leaf's
// keys from above when it has a right sibling: it is the separator its
// parent holds for the sibling.
//
// Keys in an internal node separate children: child i holds keys < key i,
// child i+1 holds keys >= key i.  An internal node keeps its level in the
// last two bytes of the page: 1 when its children are leaves, one more for
// each level above.
const (
	leafHeader     = 2
	leafEntrySize  = 8 + 10
	leafTrailer    = 8 + 8 // high key + right sibling
	innerHeader    = 2
	innerEntrySize = 8 + 8 // key + child (plus one extra child pointer)

	// MaxLeafEntries and MaxInnerEntries are exported for tests and for
	// sizing databases.
	MaxLeafEntries  = (page.PayloadSize - leafHeader - leafTrailer) / leafEntrySize
	MaxInnerEntries = (page.PayloadSize - innerHeader - 8 - 2) / innerEntrySize
)

// Tree is a B+tree handle.  The root page id is fixed for the lifetime of
// the tree.
type Tree struct {
	name string
	root page.ID
}

// Create allocates an empty RID tree.
func Create(tx *engine.Tx, name string) (*Tree, error) {
	return create(tx, name, page.TypeBTreeLeaf)
}

// create allocates an empty tree whose leaves are of type leafType: a root
// internal node at level 1 over one empty leaf.  The root's fill allocates
// the leaf, so the root takes the lower page id and each is one record.
func create(tx *engine.Tx, name string, leafType page.Type) (*Tree, error) {
	root, err := tx.AllocEdit(page.TypeBTreeInternal, func(w *page.Writer) error {
		leaf, err := tx.AllocEdit(leafType, func(w *page.Writer) error {
			if leafType == page.TypeRecordLeaf {
				initRecordLeaf(w, 0, page.InvalidID)
			}
			return nil
		})
		if err != nil {
			return err
		}
		setLevel(w, 1)
		setInnerChild(w, 0, leaf)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("btree: creating %s: %w", name, err)
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
	highOff  = page.Size - leafTrailer
	rightOff = page.Size - 8
	levelOff = page.Size - 2
)

// leafOff is the page offset of RID leaf entry i.
func leafOff(i int) int { return page.HeaderSize + leafHeader + i*leafEntrySize }

// innerChildOff and innerKeyOff are the page offsets of inner child i and
// of inner key i.
func innerChildOff(i int) int { return page.HeaderSize + innerHeader + i*innerEntrySize }

func innerKeyOff(i int) int { return innerChildOff(i) + 8 }

// setLevel stores the level of an internal node.
func setLevel(w *page.Writer, level int) { w.PutUint16(levelOff, uint16(level)) }

func nodeCount(buf page.Buf) int { return int(binary.LittleEndian.Uint16(buf[countOff:])) }

func setNodeCount(w *page.Writer, n int) { w.PutUint16(countOff, uint16(n)) }

// innerLevel returns the level of an internal node: 1 above the leaves.
func innerLevel(buf page.Buf) int { return int(binary.LittleEndian.Uint16(buf[levelOff:])) }

func leafKey(buf page.Buf, i int) uint64 { return binary.LittleEndian.Uint64(buf[leafOff(i):]) }

func leafRID(buf page.Buf, i int) page.RID { return page.DecodeRID(buf[leafOff(i)+8:]) }

// insertLeafEntry inserts key -> rid at position i of a RID leaf with room
// for it.
func insertLeafEntry(w *page.Writer, i int, key uint64, rid page.RID) {
	n := nodeCount(w.Page())
	w.Move(leafOff(i+1), leafOff(i), (n-i)*leafEntrySize)
	e := w.Bytes(leafOff(i), leafEntrySize)
	binary.LittleEndian.PutUint64(e, key)
	enc := page.EncodeRID(rid)
	copy(e[8:], enc[:])
	setNodeCount(w, n+1)
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
// entries, keyAt, search, highKey, next and beyond read one without knowing
// which.  keyAt takes the kind (rec: a record leaf) from its caller, which
// looks it up once per leaf rather than once per key.

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

func highKey(buf page.Buf) uint64 { return binary.LittleEndian.Uint64(buf[highOff:]) }

// next returns the leaf's right sibling.
func next(buf page.Buf) page.ID { return page.ID(binary.LittleEndian.Uint64(buf[rightOff:])) }

// beyond reports whether key lies past the leaf, in a right sibling.
func beyond(buf page.Buf, key uint64) bool { return next(buf) != 0 && key >= highKey(buf) }

func setSibling(w *page.Writer, high uint64, right page.ID) {
	w.PutUint64(highOff, high)
	w.PutUint64(rightOff, uint64(right))
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

// --- descent ---------------------------------------------------------------

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
// internal nodes on the way, the root first, and the leaf.  It reads the
// internal nodes with Tx.Peek, whose locks last only the read, and stops
// at the child of the node marked level 1 without touching it: what it
// found may be stale by the time the caller locks the leaf, so the caller
// moves right past the leaf's high key (beyond).
func (t *Tree) path(tx *engine.Tx, key uint64, nodes []page.ID) ([]page.ID, page.ID, error) {
	for id := t.root; ; {
		var (
			child page.ID
			level int
		)
		if err := tx.Peek(id, func(buf page.Buf) error {
			child, level = childFor(buf, key), innerLevel(buf)
			return nil
		}); err != nil {
			return nodes, page.InvalidID, err
		}
		nodes = append(nodes, id)
		if level == 1 {
			return nodes, child, nil
		}
		id = child
	}
}

// readLeaf locks the leaf that holds key shared, before it reads it, and
// passes fn the leaf and key's position in it if key is there.  It
// reports whether it was.
func (t *Tree) readLeaf(tx *engine.Tx, key uint64, fn func(buf page.Buf, i int) error) (bool, error) {
	var stack [maxDepth]page.ID
	_, leaf, err := t.path(tx, key, stack[:0])
	found := false
	for err == nil && leaf != page.InvalidID {
		err = tx.Read(leaf, func(buf page.Buf) error {
			if beyond(buf, key) {
				leaf = next(buf)
				return nil
			}
			leaf = page.InvalidID
			i, ok := search(buf, key)
			if !ok {
				return nil
			}
			found = true
			return fn(buf, i)
		})
	}
	return found, err
}

// editLeaf runs fn on the leaf that holds key, locked exclusively before
// it is read: leaf, which a descent found, or a right sibling of it.  It
// returns that leaf, and whether the transaction took its lock in this
// call.  A leaf it passes on the way it gives back if it took its lock
// (Tx.Unlock): it changed nothing there.
func editLeaf(tx *engine.Tx, leaf page.ID, key uint64, fn func(w *page.Writer) error) (page.ID, bool, error) {
	for {
		took := !tx.Holds(leaf)
		right := page.InvalidID
		err := tx.Edit(leaf, func(w *page.Writer) error {
			if beyond(w.Page(), key) {
				right = next(w.Page())
				return nil
			}
			return fn(w)
		})
		if err != nil || right == page.InvalidID {
			return leaf, took, err
		}
		if took {
			tx.Unlock(leaf)
		}
		leaf = right
	}
}

// Height returns the number of levels of the tree, the leaves included: 2
// for a new tree.  It is used by tests and diagnostics.
func (t *Tree) Height(tx *engine.Tx) (int, error) {
	var stack [maxDepth]page.ID
	nodes, _, err := t.path(tx, 0, stack[:0])
	return len(nodes) + 1, err
}

// --- RID trees ---------------------------------------------------------------

// Get returns the RID stored under key.
func (t *Tree) Get(tx *engine.Tx, key uint64) (page.RID, bool, error) {
	var rid page.RID
	found, err := t.readLeaf(tx, key, func(buf page.Buf, i int) error {
		rid = leafRID(buf, i)
		return nil
	})
	return rid, found, err
}

// Insert adds key -> rid to the tree.  Inserting an existing key returns
// ErrDuplicate.
func (t *Tree) Insert(tx *engine.Tx, key uint64, rid page.RID) error {
	return t.insert(tx, key, func(w *page.Writer) (int, bool, error) {
		buf := w.Page()
		i, found := search(buf, key)
		if found {
			return 0, false, fmt.Errorf("%w: %d in %s", ErrDuplicate, key, t.name)
		}
		if nodeCount(buf) >= MaxLeafEntries {
			return i, true, nil
		}
		insertLeafEntry(w, i, key, rid)
		return 0, false, nil
	}, func(leaf page.ID, image page.Buf, pos int) (*splitResult, bool, error) {
		split, err := splitLeaf(tx, leaf, image, pos, key, rid)
		return split, false, err
	})
}

// InsertRun adds keys[i] -> rids[i] for every i, as calls of Insert in that
// order would, and leaves the tree in the shape they would: keys must
// ascend.  The keys that go into one gap of a leaf — between two of its
// keys, or after its last — go in one Edit, logged as one update record:
// a run that extends a leaf costs one record, where Insert logs one per
// key.  A key that finds its leaf full goes in by Insert, whose split
// makes room, and the run goes on from there.  A key the tree holds, or
// one the run repeats, stops the run with ErrDuplicate, the keys before it
// inserted.
func (t *Tree) InsertRun(tx *engine.Tx, keys []uint64, rids []page.RID) error {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return fmt.Errorf("btree: run into %s descends at %d: %d after %d", t.name, i, keys[i], keys[i-1])
		}
	}
	leaf := page.InvalidID
	for len(keys) > 0 {
		if leaf == page.InvalidID {
			var stack [maxDepth]page.ID
			var err error
			if _, leaf, err = t.path(tx, keys[0], stack[:0]); err != nil {
				return err
			}
		}
		var (
			n         int
			dup, past bool
			err       error
		)
		leaf, _, err = editLeaf(tx, leaf, keys[0], func(w *page.Writer) error {
			n, dup, past = insertGap(w, keys, rids)
			return nil
		})
		if err != nil {
			return err
		}
		if dup {
			return fmt.Errorf("%w: %d in %s", ErrDuplicate, keys[n], t.name)
		}
		if n == 0 {
			// The leaf is full: Insert splits it, and the rest of the run
			// descends again to find where the split put its keys.
			if err := t.Insert(tx, keys[0], rids[0]); err != nil {
				return err
			}
			n, past = 1, true
		}
		if past {
			leaf = page.InvalidID
		}
		keys, rids = keys[n:], rids[n:]
	}
	return nil
}

// insertGap inserts into a RID leaf, which holds keys[0]'s range, the keys
// of keys that go where keys[0] goes, keys[0] first, in one move of the
// entries above them and one write of theirs, and returns how many it
// inserted.  It inserts none if the leaf is full.  dup reports that
// keys[n] is in the leaf or repeats keys[n-1], and past that keys[n] lies
// beyond the leaf, in a right sibling.
func insertGap(w *page.Writer, keys []uint64, rids []page.RID) (n int, dup, past bool) {
	buf := w.Page()
	i, found := search(buf, keys[0])
	if found {
		return 0, true, false
	}
	count := nodeCount(buf)
	room := MaxLeafEntries - count
	if room == 0 {
		return 0, false, false
	}
	for n < len(keys) && n < room {
		k := keys[n]
		if n > 0 {
			if k == keys[n-1] || i < count && k == leafKey(buf, i) {
				dup = true
				break
			}
			if past = beyond(buf, k); past || i < count && k > leafKey(buf, i) {
				break
			}
		}
		n++
	}
	if i < count {
		w.Move(leafOff(i+n), leafOff(i), (count-i)*leafEntrySize)
	}
	for j := range n {
		e := w.Bytes(leafOff(i+j), leafEntrySize)
		binary.LittleEndian.PutUint64(e, keys[j])
		enc := page.EncodeRID(rids[j])
		copy(e[8:], enc[:])
	}
	if n > 0 {
		setNodeCount(w, count+n)
	}
	return n, dup, past
}

// splitLeaf splits the full RID leaf id, whose copy is image, and inserts
// key -> rid at position pos of it.  If the key sorts last, the leaf stays
// full and the new right sibling holds the key alone; otherwise the leaf
// keeps the lower half of its keys, and the key goes into the half it sorts
// into.
func splitLeaf(tx *engine.Tx, id page.ID, image page.Buf, pos int, key uint64, rid page.RID) (*splitResult, error) {
	n := nodeCount(image)
	cut, sep := n, key
	if pos < n {
		cut = n / 2
		sep = leafKey(image, cut)
	}
	rightID, err := tx.AllocEdit(page.TypeBTreeLeaf, func(w *page.Writer) error {
		setSibling(w, highKey(image), next(image))
		copy(w.Bytes(leafOff(0), (n-cut)*leafEntrySize), image[leafOff(cut):leafOff(n)])
		setNodeCount(w, n-cut)
		if key >= sep {
			insertLeafEntry(w, pos-cut, key, rid)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tx.Edit(id, func(w *page.Writer) error {
		setNodeCount(w, cut)
		setSibling(w, sep, rightID)
		if key < sep {
			insertLeafEntry(w, pos, key, rid)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &splitResult{key: sep, right: rightID}, nil
}

// DeleteFirst removes the least key in [lo, hi] from the tree and returns
// it with its RID, and false if the range is empty; DeleteFirst(k, k)
// deletes k.  Deletes are lazy: leaves may underflow.  It locks each leaf
// it reads exclusively before reading it, so a transaction that takes the
// oldest entry of a queue this way — TPC-C's Delivery — never holds the
// leaf shared first and upgrades.
func (t *Tree) DeleteFirst(tx *engine.Tx, lo, hi uint64) (uint64, page.RID, bool, error) {
	var stack [maxDepth]page.ID
	_, leaf, err := t.path(tx, lo, stack[:0])
	var (
		key   uint64
		rid   page.RID
		found bool
	)
	for err == nil && leaf != page.InvalidID {
		err = tx.Edit(leaf, func(w *page.Writer) error {
			buf := w.Page()
			i, _ := search(buf, lo)
			if i == nodeCount(buf) {
				// Nothing here from lo on: the range goes on in the right
				// sibling if it reaches the sibling's first key.
				if leaf = next(buf); leaf != page.InvalidID && highKey(buf) > hi {
					leaf = page.InvalidID
				}
				return nil
			}
			leaf = page.InvalidID
			if key = leafKey(buf, i); key <= hi {
				rid, found = leafRID(buf, i), true
				deleteLeafEntry(w, i)
			}
			return nil
		})
	}
	return key, rid, found, err
}

// deleteLeafEntry removes entry i of a RID leaf.
func deleteLeafEntry(w *page.Writer, i int) {
	n := nodeCount(w.Page())
	w.Move(leafOff(i), leafOff(i+1), (n-i-1)*leafEntrySize)
	setNodeCount(w, n-1)
}

// ErrStopScan stops a Scan early without reporting an error.
var ErrStopScan = errors.New("btree: stop scan")

// Scan visits keys in [lo, hi] in ascending order.
func (t *Tree) Scan(tx *engine.Tx, lo, hi uint64, fn func(key uint64, rid page.RID) error) error {
	return t.scan(tx, lo, hi, func(buf page.Buf, i int, key uint64) error {
		return fn(key, leafRID(buf, i))
	})
}

// scan visits the entries of keys in [lo, hi] in ascending order, from the
// leaf of lo on along the right siblings, each locked shared before it is
// read, passing fn the leaf, the entry's position and its key.  A leaf
// that split since the descent passes the scan on to its right sibling
// like any other.
func (t *Tree) scan(tx *engine.Tx, lo, hi uint64, fn func(buf page.Buf, i int, key uint64) error) error {
	var stack [maxDepth]page.ID
	_, leaf, err := t.path(tx, lo, stack[:0])
	for err == nil && leaf != page.InvalidID {
		err = tx.Read(leaf, func(buf page.Buf) error {
			start, _ := search(buf, lo)
			rec, n := buf.Type() == page.TypeRecordLeaf, entries(buf)
			for i := start; i < n; i++ {
				k := keyAt(buf, rec, i)
				if k > hi {
					leaf = page.InvalidID
					return nil
				}
				if err := fn(buf, i, k); err != nil {
					return err
				}
			}
			leaf = next(buf)
			return nil
		})
	}
	if errors.Is(err, ErrStopScan) {
		return nil
	}
	return err
}

// --- splits ----------------------------------------------------------------

// splitResult describes a child split that must be registered in the parent.
type splitResult struct {
	key   uint64
	right page.ID
	// root is a copy of the root as its split left it, when the node that
	// split is the root: splitRoot moves it into a new left child.
	root page.Buf
}

// insert runs put on the leaf of key, locked exclusively before it is
// read.  put makes its change and returns false, or finds the leaf too
// full for it and returns true and the position of key in the leaf.  Then
// insert locks the ancestors a split of the leaf changes (lockAncestors),
// has split split the leaf and make the change, and registers the new
// sibling in the parent.  split gets a copy of the leaf taken in put's
// edit, which the transaction's lock keeps current, so it need not read
// the leaf again.  When an ancestor has moved since the descent,
// or when split asks to, insert descends again.
func (t *Tree) insert(tx *engine.Tx, key uint64, put func(w *page.Writer) (pos int, full bool, err error), split func(leaf page.ID, image page.Buf, pos int) (s *splitResult, again bool, err error)) error {
	for {
		var stack [maxDepth]page.ID
		nodes, leaf, err := t.path(tx, key, stack[:0])
		if err != nil {
			return err
		}
		var (
			pos        int
			full, took bool
			image      page.Buf // the full leaf, as put left it
		)
		leaf, took, err = editLeaf(tx, leaf, key, func(w *page.Writer) (err error) {
			if pos, full, err = put(w); full && err == nil {
				image = w.Page().Clone()
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
			// The leaf goes back too, unless put changed it: nothing
			// holds a lock across the next descent that it did not need.
			if took {
				tx.Unlock(leaf)
			}
			pauseBeforeRedescent(tx)
			continue
		}
		s, again, err := split(leaf, image, pos)
		if err == nil {
			err = t.registerSplit(tx, nodes, s)
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
// caller must descend again.  Before it reports false it gives back the
// locks it took (Tx.Unlock): it changed nothing under them, and a writer
// that kept them through its next descent, which peeks top down, would
// hold a node while it waits for one above it, the opposite of the bottom
// up order every split locks in.
func lockAncestors(tx *engine.Tx, nodes []page.ID, leaf page.ID) (bool, error) {
	var stack [maxDepth]bool
	took := stack[:]
	if len(nodes) > maxDepth {
		took = make([]bool, len(nodes))
	}
	child := leaf
	for i := len(nodes) - 1; i >= 0; i-- {
		var holds, full bool
		took[i] = !tx.Holds(nodes[i])
		err := tx.Edit(nodes[i], func(w *page.Writer) error {
			buf := w.Page()
			n := nodeCount(buf)
			for j := 0; j <= n && !holds; j++ {
				holds = innerChild(buf, j) == child
			}
			full = n >= MaxInnerEntries
			return nil
		})
		if err == nil && !holds {
			for j := i; j < len(nodes); j++ {
				if took[j] {
					tx.Unlock(nodes[j])
				}
			}
		}
		if err != nil || !holds || !full {
			return holds, err
		}
		child = nodes[i]
	}
	return true, nil
}

// registerSplit inserts the separator of a split child into the last of
// nodes, its parent, splitting that in turn as needed, up to the root.
// lockAncestors has locked every node it changes.
func (t *Tree) registerSplit(tx *engine.Tx, nodes []page.ID, split *splitResult) error {
	for i := len(nodes) - 1; i >= 0; i-- {
		var err error
		if split, err = t.insertIntoInner(tx, nodes[i], split); err != nil || split == nil {
			return err
		}
	}
	return t.splitRoot(tx, split)
}

// splitRoot keeps the root page in place: it moves the root's content,
// split.root, to a new left sibling of split.right and turns the root into
// an internal node over (left, split.key, split.right), one level higher.
func (t *Tree) splitRoot(tx *engine.Tx, split *splitResult) error {
	leftID, err := tx.AllocEdit(page.TypeBTreeInternal, func(w *page.Writer) error {
		copy(w.Bytes(page.HeaderSize, page.PayloadSize), split.root.Payload())
		return nil
	})
	if err != nil {
		return err
	}
	return tx.Edit(t.root, func(w *page.Writer) error {
		setLevel(w, innerLevel(split.root)+1)
		setNodeCount(w, 1)
		setInnerChild(w, 0, leftID)
		setInnerKey(w, 0, split.key)
		setInnerChild(w, 1, split.right)
		return nil
	})
}

func (t *Tree) insertIntoInner(tx *engine.Tx, id page.ID, split *splitResult) (*splitResult, error) {
	var image page.Buf // the node, if it is full
	err := tx.Edit(id, func(w *page.Writer) error {
		if nodeCount(w.Page()) >= MaxInnerEntries {
			image = w.Page().Clone()
			return nil
		}
		insertInnerEntry(w, split.key, split.right)
		return nil
	})
	if err != nil || image == nil {
		return nil, err
	}
	n, level := nodeCount(image), innerLevel(image)
	if split.key > innerKey(image, n-1) {
		// The new child sorts after every key of the full node: leave the
		// node whole and give the right node no keys and that one child.
		rightID, err := tx.AllocEdit(page.TypeBTreeInternal, func(w *page.Writer) error {
			setLevel(w, level)
			setInnerChild(w, 0, split.right)
			return nil
		})
		if err != nil {
			return nil, err
		}
		s := &splitResult{key: split.key, right: rightID}
		if id == t.root {
			s.root = image
		}
		return s, nil
	}

	// Split the internal node around its median key.
	mid := n / 2
	upKey := innerKey(image, mid)
	right := split.key >= upKey
	rightID, err := tx.AllocEdit(page.TypeBTreeInternal, func(w *page.Writer) error {
		setLevel(w, level)
		// Children mid+1 to n and the keys between them, which alternate
		// in the node, become the right node's.
		rightCount := n - mid - 1
		setNodeCount(w, rightCount)
		copy(w.Bytes(innerChildOff(0), rightCount*innerEntrySize+8), image[innerChildOff(mid+1):innerKeyOff(n)])
		if right {
			insertInnerEntry(w, split.key, split.right)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &splitResult{key: upKey, right: rightID}
	if err := tx.Edit(id, func(w *page.Writer) error {
		setNodeCount(w, mid)
		if !right {
			insertInnerEntry(w, split.key, split.right)
		}
		if id == t.root {
			s.root = w.Page().Clone()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
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
