//go:build !race

package btree

import "github.com/reprolab/face/internal/engine"

// Without the race detector the scheduling point of pause_race.go compiles
// to nothing.

func pauseBeforeRedescent(*engine.Tx) {}
