//go:build race

package page

import (
	"strings"
	"testing"
)

// TestFreeListCatchesUseAfterRecycle: under the race build an image is
// poisoned when it is given back, and a write to it while it is parked is
// caught when it is handed out again (the program stops there; the test
// asks for the report instead), naming who gave it back.
func TestFreeListCatchesUseAfterRecycle(t *testing.T) {
	l := NewFreeList(4)
	img := l.Get()
	img.Init(7, TypeHeap)
	l.Put(img)
	if img[0] != poisonByte || img[Size-1] != poisonByte {
		t.Fatal("Put did not poison the image")
	}
	if err := img.VerifyChecksum(); err == nil {
		t.Fatal("a poisoned image passes for a page")
	}
	// Parked and untouched: handed out again without complaint.
	img = l.Get()
	l.Put(img)

	img[100] = 1 // use after recycle
	msg := l.guard.violation(img)
	if !strings.Contains(msg, "byte 100") || !strings.Contains(msg, "freelist_race_test.go") {
		t.Fatalf("a write to a parked image is reported as %q, want the byte and the site that returned the image", msg)
	}
}
