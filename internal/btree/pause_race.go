//go:build race

package btree

import (
	"sync"

	"github.com/reprolab/face/internal/engine"
)

// The race build's scheduling point in the insert path.  A test sets a hook
// to hold a writer at the point where its check of the ancestors it locked
// has failed and it is about to descend again, so that another transaction
// can be driven through that window every run instead of by luck.  Outside
// the race build the point compiles to nothing (pause_norace.go).

var pauseHook struct {
	sync.Mutex
	fn func(tx *engine.Tx)
}

// setPauseBeforeRedescent installs fn as the hook, or removes it when fn is
// nil.
func setPauseBeforeRedescent(fn func(tx *engine.Tx)) {
	pauseHook.Lock()
	defer pauseHook.Unlock()
	pauseHook.fn = fn
}

// pauseBeforeRedescent runs the hook, if one is set, for the writer tx.
func pauseBeforeRedescent(tx *engine.Tx) {
	pauseHook.Lock()
	fn := pauseHook.fn
	pauseHook.Unlock()
	if fn != nil {
		fn(tx)
	}
}
