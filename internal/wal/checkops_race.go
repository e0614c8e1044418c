//go:build race

package wal

import "github.com/reprolab/face/internal/page"

// appendCheckOps re-parses the operations of a record on its way into the
// log.  Only the race build pays for it: outside it the engine's own
// page.Writer built every operation list Append sees, and decodeRecord
// checks every list it reads back (checkops_norace.go).
func appendCheckOps(ops []byte, undo bool) error { return page.CheckOps(ops, undo) }
