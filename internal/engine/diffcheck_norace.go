//go:build !race

package engine

import (
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// Without the race detector the differ's self-check of diffcheck_race.go
// compiles to nothing.
func checkEdits(page.Buf, page.Buf, []wal.Edit) {}
