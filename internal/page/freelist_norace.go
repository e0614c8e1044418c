//go:build !race

package page

// Without the race detector the use-after-recycle guard of freelist_race.go
// compiles to nothing.

// RecycleGuard reports whether this build poisons and checks recycled
// images (see freelist_race.go).
const RecycleGuard = false

func poison(Buf) {}

type guard struct{}

func (guard) parked(Buf) {}
func (guard) check(Buf)  {}
func (guard) reset()     {}

// checkReplay says whether every Writer.Ops replays the edit's operations
// on a copy of the page as the edit began and panics unless that gives the
// page: the race build's check that the operations log every write.
const checkReplay = false
