package page

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	b := NewBuf()
	b.Init(42, TypeHeap)
	b.SetLSN(777)
	if b.ID() != 42 || b.LSN() != 777 || b.Type() != TypeHeap {
		t.Fatalf("header round trip failed: id=%d lsn=%d type=%v", b.ID(), b.LSN(), b.Type())
	}
}

func TestChecksum(t *testing.T) {
	b := NewBuf()
	b.Init(7, TypeHeap)
	if _, err := b.Insert([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	b.UpdateChecksum()
	if err := b.VerifyChecksum(); err != nil {
		t.Fatalf("VerifyChecksum on clean page: %v", err)
	}
	// Corrupt the body.
	b[Size-1] ^= 0xFF
	if err := b.VerifyChecksum(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyChecksum on corrupted page: %v, want ErrChecksum", err)
	}
	// Zero page verifies (never written).
	z := NewBuf()
	if err := z.VerifyChecksum(); err != nil {
		t.Fatalf("zero page should verify: %v", err)
	}
	// Wrong size.
	short := Buf(make([]byte, 100))
	if err := short.VerifyChecksum(); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short page: %v, want ErrBadSize", err)
	}
}

func TestInsertAndRecord(t *testing.T) {
	b := NewBuf()
	b.Init(1, TypeHeap)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var slots []int
	for _, r := range recs {
		s, err := b.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if b.SlotCount() != 3 {
		t.Fatalf("SlotCount = %d, want 3", b.SlotCount())
	}
	for i, s := range slots {
		got, err := b.Record(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("slot %d = %q, want %q", s, got, recs[i])
		}
	}
}

func TestInsertUntilFull(t *testing.T) {
	b := NewBuf()
	b.Init(1, TypeHeap)
	rec := make([]byte, 100)
	count := 0
	for {
		_, err := b.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
		if count > Size {
			t.Fatal("page never filled up")
		}
	}
	// 104 bytes per record (100 + 4-byte slot) in ~4064 payload bytes.
	if count < 35 || count > 40 {
		t.Fatalf("inserted %d 100-byte records, expected ~39", count)
	}
	if b.FreeSpace() >= 104 {
		t.Fatalf("FreeSpace = %d after filling, expected < 104", b.FreeSpace())
	}
}

func TestInsertTooLarge(t *testing.T) {
	b := NewBuf()
	b.Init(1, TypeHeap)
	if _, err := b.Insert(make([]byte, PayloadSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestDelete(t *testing.T) {
	b := NewBuf()
	b.Init(1, TypeHeap)
	s, _ := b.Insert([]byte("doomed"))
	del, err := b.Deleted(s)
	if err != nil || del {
		t.Fatalf("Deleted before delete = %v, %v", del, err)
	}
	if err := b.Delete(s); err != nil {
		t.Fatal(err)
	}
	del, err = b.Deleted(s)
	if err != nil || !del {
		t.Fatalf("Deleted after delete = %v, %v", del, err)
	}
	if _, err := b.Record(s); !errors.Is(err, ErrSlotDeleted) {
		t.Fatalf("Record on deleted slot: %v, want ErrSlotDeleted", err)
	}
	if err := b.Delete(99); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Delete bad slot: %v, want ErrBadSlot", err)
	}
	if _, err := b.Deleted(99); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Deleted bad slot: %v, want ErrBadSlot", err)
	}
}

func TestRecordBadSlot(t *testing.T) {
	b := NewBuf()
	b.Init(1, TypeHeap)
	if _, err := b.Record(0); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("got %v, want ErrBadSlot", err)
	}
	if _, err := b.Record(-1); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("got %v, want ErrBadSlot", err)
	}
}

func TestClone(t *testing.T) {
	b := NewBuf()
	b.Init(9, TypeBTreeLeaf)
	if _, err := b.Insert([]byte("original")); err != nil {
		t.Fatal(err)
	}
	c := b.Clone()
	if !bytes.Equal(b, c) {
		t.Fatal("clone differs from original")
	}
	c[HeaderSize] ^= 0xFF
	if bytes.Equal(b, c) {
		t.Fatal("clone shares storage with original")
	}
}

func TestInitClearsOldContent(t *testing.T) {
	b := NewBuf()
	b.Init(1, TypeHeap)
	if _, err := b.Insert([]byte("junk")); err != nil {
		t.Fatal(err)
	}
	b.Init(2, TypeBTreeLeaf)
	if b.SlotCount() != 0 || b.ID() != 2 || b.Type() != TypeBTreeLeaf {
		t.Fatalf("Init did not reset page: slots=%d id=%d type=%v", b.SlotCount(), b.ID(), b.Type())
	}
	if b.FreeSpace() < PayloadSize-2*SlotSize {
		t.Fatalf("FreeSpace after Init = %d", b.FreeSpace())
	}
}

func TestTypeString(t *testing.T) {
	types := []Type{TypeFree, TypeSuperblock, TypeHeap, TypeBTreeLeaf, TypeBTreeInternal, TypeMeta, TypeKVCatalog, TypeRecordLeaf, Type(99)}
	seen := map[string]bool{}
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Errorf("type %d string %q empty or duplicate", ty, s)
		}
		seen[s] = true
	}
}

func TestRIDEncodeDecode(t *testing.T) {
	r := RID{Page: 123456789, Slot: 321}
	enc := EncodeRID(r)
	if got := DecodeRID(enc[:]); got != r {
		t.Fatalf("DecodeRID(EncodeRID(%v)) = %v", r, got)
	}
	if r.String() == "" {
		t.Fatal("RID.String empty")
	}
	if !(RID{}).IsZero() || r.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
}

func TestRIDRoundTripProperty(t *testing.T) {
	f := func(p uint64, s uint16) bool {
		r := RID{Page: ID(p), Slot: s}
		enc := EncodeRID(r)
		return DecodeRID(enc[:]) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSlottedPageProperty inserts random records and verifies they all read
// back intact, an invariant of the slotted layout.
func TestSlottedPageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		b := NewBuf()
		b.Init(ID(iter+1), TypeHeap)
		var inserted [][]byte
		var slots []int
		for {
			rec := make([]byte, 1+rng.Intn(200))
			rng.Read(rec)
			s, err := b.Insert(rec)
			if errors.Is(err, ErrPageFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, rec)
			slots = append(slots, s)
		}
		if len(inserted) == 0 {
			t.Fatal("no records inserted")
		}
		for i, s := range slots {
			got, err := b.Record(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, inserted[i]) {
				t.Fatalf("iteration %d slot %d mismatch", iter, s)
			}
		}
		b.UpdateChecksum()
		if err := b.VerifyChecksum(); err != nil {
			t.Fatal(err)
		}
	}
}
