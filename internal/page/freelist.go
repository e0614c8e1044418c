package page

import "sync"

// FreeList recycles page images so that the steady-state page path — buffer
// miss, eviction, flash stage-in, group replacement — allocates nothing
// page-sized.  It is a bounded stack: Put keeps an image while fewer than
// the bound are parked and lets the collector have it otherwise, Get pops
// one or allocates when the list is empty.  Nothing is allocated up front;
// the list fills as images come back.
//
// The ownership rule of Buf applies: Put is a statement that the caller
// owned the image exclusively and is done with it.  Under the race build
// the list enforces it — an image is poisoned on Put, the poison is checked
// when the image is handed out again, and the program stops with the site
// that gave the image back if it was touched (freelist_race.go).
//
// A nil *FreeList is valid and recycles nothing: Get allocates, Put lets
// go.  That is how an image with no home — a DRAM victim pulled by a test's
// PullFunc, say — falls to the collector through the same code path.
type FreeList struct {
	mu   sync.Mutex
	free []Buf
	max  int
	// guard is the race build's use-after-recycle check; it is an empty
	// struct otherwise.
	guard guard
}

// NewFreeList returns an empty free list that parks at most max images.
func NewFreeList(max int) *FreeList {
	if max < 0 {
		max = 0
	}
	return &FreeList{max: max}
}

// Get returns a page image the caller owns.  Its contents are unspecified:
// whoever fills it must write all Size bytes (or clear it first).
func (l *FreeList) Get() Buf {
	if l == nil {
		return NewBuf()
	}
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return NewBuf()
	}
	b := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.guard.check(b)
	l.mu.Unlock()
	return b
}

// Put gives an image back.  The caller must own it exclusively and must not
// touch it afterwards; anything that is not a full page image is ignored.
func (l *FreeList) Put(b Buf) {
	if len(b) != Size {
		return
	}
	poison(b)
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.free) < l.max {
		l.guard.parked(b)
		l.free = append(l.free, b)
	}
	l.mu.Unlock()
}

// Drop forgets every parked image, as the loss of volatile state at a crash
// does.
func (l *FreeList) Drop() {
	if l == nil {
		return
	}
	l.mu.Lock()
	clear(l.free)
	l.free = l.free[:0]
	l.guard.reset()
	l.mu.Unlock()
}

// Len returns the number of parked images.
func (l *FreeList) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
