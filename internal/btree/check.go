package btree

import (
	"fmt"
	"math"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/page"
)

// Shape is what Check found: the leaves left to right and, for each level
// from the root down to the leaves, the key count of every node left to
// right.
type Shape struct {
	Leaves []page.ID
	Levels [][]int
}

// Check walks the whole tree and reports the first broken invariant: the
// keys of every node ascend and lie within the bounds its parent's
// separators give it, every leaf is at the same depth, the level marks
// count down from the root to 1 above the leaves, the leaves' high keys
// are their parents' bounds, and the leaves' right siblings visit them
// left to right.  It is meant for tests and diagnostics.
func (t *Tree) Check(tx *engine.Tx) (Shape, error) {
	var s Shape
	var visit func(id page.ID, depth, level int, lo, hi uint64) error
	// level is the mark the node must carry: 0 for a leaf.
	visit = func(id page.ID, depth, level int, lo, hi uint64) error {
		var (
			leaf     bool
			mark     int
			keys     []uint64
			children []page.ID
			high     = hi // a leaf's high key, its last if it has no sibling
		)
		if err := tx.Read(id, func(buf page.Buf) error {
			if leaf = isLeaf(buf); leaf {
				if high = math.MaxUint64; next(buf) != 0 {
					high = highKey(buf)
				}
				rec := buf.Type() == page.TypeRecordLeaf
				for i := range entries(buf) {
					keys = append(keys, keyAt(buf, rec, i))
				}
				return nil
			}
			n := nodeCount(buf)
			mark = innerLevel(buf)
			for i := range n {
				keys = append(keys, innerKey(buf, i))
				children = append(children, innerChild(buf, i))
			}
			children = append(children, innerChild(buf, n))
			return nil
		}); err != nil {
			return err
		}
		if depth > 0 && mark != level || depth == 0 && mark == 0 {
			return fmt.Errorf("btree %s: node %d at depth %d is marked level %d, want %d (any above 0 at the root)", t.name, id, depth, mark, level)
		}
		if high != hi {
			return fmt.Errorf("btree %s: leaf %d has high key %d, but its parent bounds it by %d", t.name, id, high, hi)
		}
		for i, k := range keys {
			if k < lo || k >= hi || i > 0 && k <= keys[i-1] {
				return fmt.Errorf("btree %s: node %d at depth %d: key %d is %d, not ascending within [%d, %d)", t.name, id, depth, i, k, lo, hi)
			}
		}
		// The first leaf the walk meets is the leftmost; it sets the depth.
		if leafDepth := len(s.Levels) - 1; len(s.Leaves) > 0 && leaf != (depth == leafDepth) {
			return fmt.Errorf("btree %s: node %d at depth %d: leaf %v, but the leaves are at depth %d", t.name, id, depth, leaf, leafDepth)
		}
		if len(s.Levels) == depth {
			s.Levels = append(s.Levels, nil)
		}
		s.Levels[depth] = append(s.Levels[depth], len(keys))
		if leaf {
			s.Leaves = append(s.Leaves, id)
			return nil
		}
		for i, child := range children {
			clo, chi := lo, hi
			if i > 0 {
				clo = keys[i-1]
			}
			if i < len(keys) {
				chi = keys[i]
			}
			if err := visit(child, depth+1, mark-1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(t.root, 0, 0, 0, math.MaxUint64); err != nil {
		return s, err
	}

	id := s.Leaves[0]
	for i, leaf := range s.Leaves {
		if id != leaf {
			return s, fmt.Errorf("btree %s: leaf %d of %d is %d, but the right siblings reach %d", t.name, i, len(s.Leaves), leaf, id)
		}
		if err := tx.Read(id, func(buf page.Buf) error {
			id = next(buf)
			return nil
		}); err != nil {
			return s, err
		}
	}
	if id != page.InvalidID {
		return s, fmt.Errorf("btree %s: the last leaf links to %d", t.name, id)
	}
	return s, nil
}
