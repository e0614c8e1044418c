package page

import "testing"

func TestFreeListRecyclesUpToItsBound(t *testing.T) {
	l := NewFreeList(2)
	if l.Len() != 0 {
		t.Fatalf("a new list parks %d images, want none (it fills lazily)", l.Len())
	}
	a, b, c := l.Get(), l.Get(), l.Get()
	for _, img := range []Buf{a, b, c} {
		if !img.Valid() {
			t.Fatalf("Get returned %d bytes", len(img))
		}
	}
	l.Put(a)
	l.Put(b)
	l.Put(c) // over the bound: left to the collector
	l.Put(c[:100])
	if l.Len() != 2 {
		t.Fatalf("list parks %d images, want its bound of 2", l.Len())
	}
	// A stack: the image parked last comes out first.
	if got := l.Get(); &got[0] != &b[0] {
		t.Fatal("Get did not return the image parked last")
	}
	if got := l.Get(); &got[0] != &a[0] {
		t.Fatal("Get did not return the image parked first")
	}
	if got := l.Get(); &got[0] == &c[0] {
		t.Fatal("an image over the bound was parked")
	}

	l.Put(a)
	l.Drop()
	if l.Len() != 0 {
		t.Fatalf("list parks %d images after Drop", l.Len())
	}
	if got := l.Get(); &got[0] == &a[0] {
		t.Fatal("Drop kept an image")
	}
}

func TestNilFreeListAllocatesAndLetsGo(t *testing.T) {
	var l *FreeList
	img := l.Get()
	if !img.Valid() {
		t.Fatalf("Get on a nil list returned %d bytes", len(img))
	}
	l.Put(img)
	l.Drop()
	if l.Len() != 0 {
		t.Fatal("a nil list parks images")
	}
}
