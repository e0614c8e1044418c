//go:build !race

package wal

// Without the race detector Append trusts the operation lists its callers'
// page.Writer built; the re-parse of checkops_race.go compiles to nothing.

func appendCheckOps([]byte, bool) error { return nil }
