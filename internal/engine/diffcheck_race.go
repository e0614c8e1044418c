//go:build race

package engine

import (
	"bytes"
	"fmt"

	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// The differ's self-check.  It exists only under the race build, where
// every test that modifies pages — B-tree inserts and deletes with their
// declared moves among them — doubles as a differ test: the edits of every
// Modify are redone on a copy of the before image and must give the after
// image.
func checkEdits(before, after page.Buf, edits []wal.Edit) {
	got := before.Clone()
	for i := range edits {
		edits[i].Apply(got)
	}
	if !bytes.Equal(got, after) {
		panic(fmt.Sprintf("engine: %d edits do not turn the before image into the after image", len(edits)))
	}
}
