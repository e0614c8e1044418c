//go:build !race

package engine

import (
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// Without the race detector the differ's self-checks of diffcheck_race.go
// compile to nothing, and an Edit copies no page.
func checkEdits(page.Buf, page.Buf, []wal.Edit) {}

func fullImage(page.Buf) page.Buf { return nil }

func checkWindowed(page.Buf, page.Buf, move, []wal.Edit) {}
