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
