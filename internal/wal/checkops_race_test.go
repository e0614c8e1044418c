//go:build race

package wal

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reprolab/face/internal/page"
)

// TestAppendRejectsMalformedOps: in the race build Append re-parses every
// operation list, so a malformed one — or operations with undo information
// in a format record — never reaches the log.
func TestAppendRejectsMalformedOps(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bad := malformedOps()
	buf := page.NewBuf()
	buf.Init(8, page.TypeHeap)
	w := page.NewWriter(nil)
	w.Reset(buf)
	copy(w.Bytes(3000, 4), "TAIL")
	bad["undo in a format record"] = &Record{Type: TypeFormat, PageID: 8, PageType: page.TypeHeap, Ops: bytes.Clone(w.Ops())}
	for name, r := range bad {
		if _, err := m.Append(r); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Append = %v, want ErrInvalid", name, err)
		}
	}
	if m.Next() != 0 {
		t.Fatalf("rejected records moved the log tail to %d", m.Next())
	}
}
