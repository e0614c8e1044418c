//go:build race

package engine

import (
	"bytes"
	"fmt"
	"reflect"

	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// The differ's self-checks.  They exist only under the race build, where
// every test that modifies pages doubles as a differ test: every Edit (and
// so every Modify) keeps a copy of the whole page and must log the edits
// that the full-page differ finds in it — which also catches a callback
// that wrote a byte its Writer was not told about — and those edits are
// redone on a copy of the before image and must give the after image.
func checkEdits(before, after page.Buf, edits []wal.Edit) {
	got := before.Clone()
	for i := range edits {
		edits[i].Apply(got)
	}
	if !bytes.Equal(got, after) {
		panic(fmt.Sprintf("engine: %d edits do not turn the before image into the after image", len(edits)))
	}
}

// fullImage copies the page an Edit is about to change.
func fullImage(buf page.Buf) page.Buf { return buf.Clone() }

// checkWindowed holds the edits of an Edit to diffMoved's of the whole page.
func checkWindowed(full, after page.Buf, m move, edits []wal.Edit) {
	if want := diffMoved(full, after, m); !reflect.DeepEqual(edits, want) {
		panic(fmt.Sprintf("engine: an Edit logged %d edits where the whole page has %d", len(edits), len(want)))
	}
}
