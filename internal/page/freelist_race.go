//go:build race

package page

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// The use-after-recycle guard.  It exists only under the race build, where
// every test that moves pages doubles as a recycle-safety test: an image
// given back to a free list is overwritten with poisonByte, so a reader
// that still holds it sees a page that fails its checksum, and the poison
// is checked when the image is handed out again, so a writer that still
// holds it is caught, and reported with the site that gave the image back.

const poisonByte = 0xDB

// RecycleGuard reports whether this build poisons and checks recycled
// images.  Tests that count allocations skip themselves when it does: the
// race detector's bookkeeping allocates too.
const RecycleGuard = true

func poison(b Buf) {
	for i := range b {
		b[i] = poisonByte
	}
}

// guard remembers, per parked image, who parked it.
type guard struct {
	sites map[*byte]string
}

// parked records the caller of Put as the image's last owner.
func (g *guard) parked(b Buf) {
	if g.sites == nil {
		g.sites = make(map[*byte]string)
	}
	site := "unknown"
	if _, file, line, ok := runtime.Caller(2); ok {
		site = fmt.Sprintf("%s:%d", file, line)
	}
	if first, twice := g.sites[&b[0]]; twice {
		stop(fmt.Sprintf("page: image returned to the free list twice: by %s, then by %s", first, site))
	}
	g.sites[&b[0]] = site
}

// stop reports a violation of the ownership rule and ends the program.  It
// does not panic: a panic runs the goroutine's deferred calls first, and
// the caller may be holding a lock one of them wants (the buffer pool
// allocates frames under its lock, and a transaction's deferred Unpin
// takes it), which turns the report into a hang.
func stop(msg string) {
	fmt.Fprintf(os.Stderr, "%s\n\n%s", msg, debug.Stack())
	os.Exit(2)
}

// check stops the program if the image was written to while it was parked.
func (g *guard) check(b Buf) {
	if msg := g.violation(b); msg != "" {
		stop(msg)
	}
}

// violation forgets who parked the image and describes what was done to it
// since, or returns "" if its poison is intact.
func (g *guard) violation(b Buf) string {
	site := g.sites[&b[0]]
	delete(g.sites, &b[0])
	for i, c := range b {
		if c != poisonByte {
			return fmt.Sprintf("page: image used after recycle: byte %d is %#02x, not the poison written when %s returned it to the free list", i, c, site)
		}
	}
	return ""
}

func (g *guard) reset() { g.sites = nil }

// checkReplay says whether every Writer.Ops replays the edit's operations
// on a copy of the page as the edit began and panics unless that gives the
// page: the race build's check that the operations log every write.
const checkReplay = true
