package wal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

func newLogDevice() *device.Device {
	return device.New("log", device.ProfileCheetah15K, 4096)
}

func TestRecordTypeString(t *testing.T) {
	types := []RecordType{TypeUpdate, TypeCompensation, TypeFormat, TypeCommit, TypeAbort, TypeCheckpointBegin, TypeCheckpointEnd, TypePageWritten, RecordType(200)}
	seen := map[string]bool{}
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Errorf("type %d string %q", ty, s)
		}
		seen[s] = true
	}
}

func TestRecordEncodeDecode(t *testing.T) {
	update, compensation := sampleOps()
	for _, r := range []*Record{
		{Type: TypeUpdate, TxID: 17, PageID: 99, Ops: update},
		{Type: TypeCompensation, TxID: 17, PageID: 99, Ops: compensation},
	} {
		enc := r.encode(nil)
		if len(enc) != r.encodedSize() {
			t.Fatalf("%s: encoded %d bytes, encodedSize says %d", r.Type, len(enc), r.encodedSize())
		}
		got, n, err := decodeRecord(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) {
			t.Fatalf("%s: consumed %d of %d bytes", r.Type, n, len(enc))
		}
		if got.Type != r.Type || got.TxID != r.TxID || got.PageID != r.PageID || !bytes.Equal(got.Ops, r.Ops) {
			t.Fatalf("%s: decoded as %+v", r.Type, got)
		}
	}

	// A format record carries the page type, and the operations that give
	// the new page its first contents, without undo information.
	f := &Record{Type: TypeFormat, TxID: 3, PageID: 8, PageType: page.TypeBTreeLeaf}
	got, _, err := decodeRecord(f.encode(nil))
	if err != nil || got.PageType != page.TypeBTreeLeaf || got.PageID != 8 || got.Ops != nil {
		t.Fatalf("format record decoded as %+v, %v", got, err)
	}
	buf := page.NewBuf()
	buf.Init(8, page.TypeHeap)
	w := page.NewWriter(nil)
	w.ResetRedoOnly(buf)
	w.Insert([]byte("a first record"))
	copy(w.Bytes(3000, 4), "tail")
	f = &Record{Type: TypeFormat, TxID: 3, PageID: 8, PageType: page.TypeHeap, Ops: bytes.Clone(w.Ops())}
	if err := f.check(); err != nil {
		t.Fatal(err)
	}
	enc := f.encode(nil)
	got, n, err := decodeRecord(enc)
	if err != nil || n != len(enc) || n != f.encodedSize() || got.PageType != page.TypeHeap || !bytes.Equal(got.Ops, f.Ops) {
		t.Fatalf("format record with operations decoded as %+v, %d of %d bytes, %v", got, n, len(enc), err)
	}
	redone := page.NewBuf()
	redone.Init(8, page.TypeHeap)
	page.Redo(redone, got.Ops, false)
	if !bytes.Equal(redone, buf) {
		t.Fatal("the format record's operations do not redo the page")
	}
	// Operations with undo information are not a format record's.
	w.Reset(buf)
	copy(w.Bytes(3000, 4), "TAIL")
	f.Ops = bytes.Clone(w.Ops())
	if _, _, err := decodeRecord(f.encode(nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a format record with undo information decoded: %v, want ErrCorrupt", err)
	}
}

// TestSingleWriteShorthand: a hand-built update record with Offset, Before
// and After and no Ops is logged as one write.
func TestSingleWriteShorthand(t *testing.T) {
	r := &Record{Type: TypeUpdate, TxID: 1, PageID: 7, Offset: 64, Before: []byte("aaaa"), After: []byte("bbbb")}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeRecord(r.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := page.AppendWrite(nil, 64, []byte("aaaa"), []byte("bbbb")); !bytes.Equal(got.Ops, want) {
		t.Fatalf("decoded %x, want %x", got.Ops, want)
	}
}

// malformedOps are records whose operation lists decodeRecord refuses.
// Append refuses them only in the race build (checkops_race_test.go):
// outside it Append trusts the lists the engine's page.Writer built.
func malformedOps() map[string]*Record {
	img := func(n int) []byte { return make([]byte, n) }
	return map[string]*Record{
		"image too short":       {Type: TypeUpdate, Ops: op(1, u16s(0, 4), img(7)...)},
		"leaves the page":       {Type: TypeUpdate, Ops: op(1, u16s(page.Size-2, 4), img(8)...)},
		"move past the page":    {Type: TypeUpdate, Ops: op(3, u16s(page.Size-10, 10, 20), img(20)...)},
		"images in a CLR":       {Type: TypeCompensation, Ops: op(1, u16s(10, 4), img(8)...)},
		"trailing bytes":        {Type: TypeCompensation, Ops: op(1, u16s(10, 4), img(5)...)},
		"removed cell off page": {Type: TypeUpdate, Ops: op(5, u16s(0, page.Size, 1), 7)},
	}
}

// TestAppendRejectsInvalidRecords: a record whose shape decodeRecord would
// refuse must never reach the log, and a malformed operation list is
// refused when it is read back.
func TestAppendRejectsInvalidRecords(t *testing.T) {
	m, err := Open(newLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	img := func(n int) []byte { return make([]byte, n) }
	bad := map[string]*Record{
		"no ops":             {Type: TypeUpdate, Ops: []byte{}},
		"unequal shorthand":  {Type: TypeUpdate, Before: img(3), After: img(4)},
		"shorthand off page": {Type: TypeUpdate, Offset: page.Size - 2, Before: img(4), After: img(4)},
	}
	for name, r := range bad {
		if _, err := m.Append(r); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Append = %v, want ErrInvalid", name, err)
		}
	}
	if m.Next() != 0 {
		t.Fatalf("rejected records moved the log tail to %d", m.Next())
	}
	for name, r := range malformedOps() {
		if _, _, err := decodeRecord(r.encode(nil)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decodeRecord = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestRecordDecodeCorruption(t *testing.T) {
	r := &Record{Type: TypeCommit, TxID: 5}
	enc := r.encode(nil)
	// Flip a body byte: CRC must catch it.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := decodeRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted record: %v, want ErrCorrupt", err)
	}
	// Truncated buffer.
	if _, _, err := decodeRecord(enc[:5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated record: %v, want ErrTruncated", err)
	}
	// Zero-filled tail means end of log.
	if _, _, err := decodeRecord(make([]byte, 64)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("zero tail: %v, want ErrTruncated", err)
	}
}

func TestRecordEncodeDecodeProperty(t *testing.T) {
	f := func(txid uint64, pid uint64, off uint16, before, after []byte) bool {
		n := min(len(before), len(after), 2000)
		off %= page.Size - 2000
		before, after = before[:n], after[:n]
		if n == 0 {
			return true
		}
		r := &Record{Type: TypeUpdate, TxID: TxID(txid), PageID: page.ID(pid), Offset: off, Before: before, After: after}
		enc := r.encode(nil)
		got, n, err := decodeRecord(enc)
		return err == nil && n == len(enc) && got.TxID == r.TxID && got.PageID == r.PageID &&
			bytes.Equal(got.Ops, page.AppendWrite(nil, int(off), before, after))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLSNPayload(t *testing.T) {
	enc := EncodeLSN(123456)
	got, err := DecodeLSN(enc)
	if err != nil || got != 123456 {
		t.Fatalf("DecodeLSN = %d, %v", got, err)
	}
	if _, err := DecodeLSN([]byte{1, 2}); err == nil {
		t.Fatal("short LSN payload should fail")
	}
}

func TestAppendForceIterate(t *testing.T) {
	dev := newLogDevice()
	m, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []page.LSN
	for i := 0; i < 10; i++ {
		lsn, err := m.Append(&Record{Type: TypeUpdate, TxID: TxID(i + 1), PageID: page.ID(i + 100), Offset: 4, Before: []byte{1}, After: []byte{2}})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if m.Durable() != 0 {
		t.Fatalf("Durable before force = %d, want 0", m.Durable())
	}
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if m.Durable() != m.Next() {
		t.Fatalf("Durable %d != Next %d after ForceAll", m.Durable(), m.Next())
	}
	var seen []page.LSN
	err = m.Iterate(0, func(r *Record) error {
		seen = append(seen, r.LSN)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("iterated %d records, want 10", len(seen))
	}
	for i := range seen {
		if seen[i] != lsns[i] {
			t.Fatalf("record %d LSN = %d, want %d", i, seen[i], lsns[i])
		}
	}
}

func TestForceIsIdempotent(t *testing.T) {
	dev := newLogDevice()
	m, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := m.Append(&Record{Type: TypeCommit, TxID: 1})
	if err := m.Force(lsn + 1); err != nil {
		t.Fatal(err)
	}
	forces := m.Forces()
	if err := m.Force(lsn); err != nil {
		t.Fatal(err)
	}
	if m.Forces() != forces {
		t.Fatal("redundant Force performed I/O")
	}
}

func TestIterateFromMiddle(t *testing.T) {
	dev := newLogDevice()
	m, _ := Open(dev)
	var mid page.LSN
	for i := 0; i < 20; i++ {
		lsn, _ := m.Append(&Record{Type: TypeUpdate, TxID: 1, PageID: page.ID(i), Offset: 0, Before: []byte{0}, After: []byte{byte(i)}})
		if i == 10 {
			mid = lsn
		}
	}
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	var ids []page.ID
	if err := m.Iterate(mid, func(r *Record) error {
		ids = append(ids, r.PageID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 || ids[0] != 10 {
		t.Fatalf("Iterate(mid) returned %v", ids)
	}
}

func TestCrashLosesUnforcedRecords(t *testing.T) {
	dev := newLogDevice()
	m, _ := Open(dev)
	m.Append(&Record{Type: TypeCommit, TxID: 1})
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	m.Append(&Record{Type: TypeCommit, TxID: 2})
	// Not forced: lost at crash.
	m.Crash()

	m2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	var commits []TxID
	if err := m2.Iterate(0, func(r *Record) error {
		if r.Type == TypeCommit {
			commits = append(commits, r.TxID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(commits) != 1 || commits[0] != 1 {
		t.Fatalf("recovered commits = %v, want [1]", commits)
	}
}

func TestReopenAppendsAfterDurableEnd(t *testing.T) {
	dev := newLogDevice()
	m, _ := Open(dev)
	m.Append(&Record{Type: TypeUpdate, TxID: 1, PageID: 5, Before: []byte("aaa"), After: []byte("bbb")})
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	durable := m.Durable()

	m2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Durable() != durable || m2.Next() != durable {
		t.Fatalf("reopened manager durable=%d next=%d, want both %d", m2.Durable(), m2.Next(), durable)
	}
	m2.Append(&Record{Type: TypeCommit, TxID: 1})
	if err := m2.ForceAll(); err != nil {
		t.Fatal(err)
	}
	var count int
	if err := m2.Iterate(0, func(r *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("records after reopen = %d, want 2", count)
	}
}

func TestCheckpointRecords(t *testing.T) {
	dev := newLogDevice()
	m, _ := Open(dev)
	begin, err := m.LogCheckpointBegin()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LogCheckpointEnd(begin); err != nil {
		t.Fatal(err)
	}
	if m.LastCheckpoint() != begin {
		t.Fatalf("LastCheckpoint = %d, want %d", m.LastCheckpoint(), begin)
	}
	// The checkpoint LSN must survive a crash + reopen.
	m.Crash()
	m2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if m2.LastCheckpoint() != begin {
		t.Fatalf("LastCheckpoint after reopen = %d, want %d", m2.LastCheckpoint(), begin)
	}
	// The end record payload decodes back to the begin LSN.
	var endPayload page.LSN
	if err := m2.Iterate(0, func(r *Record) error {
		if r.Type == TypeCheckpointEnd {
			var derr error
			endPayload, derr = DecodeLSN(r.After)
			return derr
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if endPayload != begin {
		t.Fatalf("checkpoint-end payload = %d, want %d", endPayload, begin)
	}
}

func TestManyRecordsSpanBlocks(t *testing.T) {
	dev := newLogDevice()
	m, _ := Open(dev)
	const n = 500
	payload := make([]byte, 100)
	for i := 0; i < n; i++ {
		payload[0] = byte(i)
		if _, err := m.Append(&Record{Type: TypeUpdate, TxID: TxID(i), PageID: page.ID(i), Before: payload, After: payload}); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 {
			if err := m.ForceAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := m.Iterate(0, func(r *Record) error {
		if r.TxID != TxID(count) {
			t.Fatalf("record %d has TxID %d", count, r.TxID)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("iterated %d records, want %d", count, n)
	}
	// Log writes must be overwhelmingly sequential.
	s := dev.Stats()
	if s.SeqWrites < s.RandWrites {
		t.Fatalf("log writes should be mostly sequential: %v", s)
	}
}

func TestLogDeviceFull(t *testing.T) {
	dev := device.New("tiny-log", device.ProfileCheetah15K, 2)
	m, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, device.BlockSize)
	for i := 0; i < 2; i++ {
		if _, err := m.Append(&Record{Type: TypeUpdate, TxID: 1, PageID: 1, Before: big, After: big}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ForceAll(); err == nil {
		t.Fatal("expected log-full error")
	}
}
