package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// frame wraps a record body (type byte onwards) in a valid length and CRC,
// so that what reaches the payload parser is exactly body.
func frame(body []byte) []byte {
	out := make([]byte, 8, 8+len(body))
	out = append(out, body...)
	binary.LittleEndian.PutUint32(out[0:], uint32(4+len(body)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(body, crcTable))
	return out
}

// body builds a record body by hand: type, txid 1, page 2, then payload.
func body(t RecordType, payload ...byte) []byte {
	b := make([]byte, 17, 17+len(payload))
	b[0] = byte(t)
	b[1], b[9] = 1, 2
	return append(b, payload...)
}

// op encodes an operation by hand: its kind, u16 fields, then bytes.
func op(kind byte, fields []uint16, images ...byte) []byte {
	b := []byte{kind}
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint16(b, f)
	}
	return append(b, images...)
}

func u16s(f ...uint16) []uint16 { return f }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// sampleOps returns the operations of an update record of a heap page (a
// record inserted, one overwritten in part and one removed, and a move),
// with undo information, and those of its compensation record.
func sampleOps() (update, compensation []byte) {
	buf := page.NewBuf()
	buf.Init(2, page.TypeHeap)
	for _, r := range []string{"first record", "second record", "third"} {
		buf.Insert([]byte(r))
	}
	w := page.NewWriter(nil)
	w.Reset(buf)
	w.Insert([]byte("a new record"))
	copy(w.Bytes(4000, 6), "NEWBIE")
	w.RemoveAt(1)
	w.Move(2000, 1980, 40)
	update = bytes.Clone(w.Ops())
	return update, bytes.Clone(page.NewWriter(nil).Undo(buf, update))
}

// corruptBodies are well-framed records (length and CRC intact) whose
// payload is not a valid operation list, format or checkpoint payload.
var corruptBodies = map[string][]byte{
	"unknown type":             body(RecordType(99)),
	"commit with payload":      body(TypeCommit, 1),
	"format short":             body(TypeFormat, 1),
	"format long":              body(TypeFormat, 1, 0, 0),
	"format with before":       body(TypeFormat, cat([]byte{1, 0}, op(1, u16s(10, 2), 1, 2, 3, 4))...),
	"format sparse cut":        body(TypeFormat, cat([]byte{1, 0}, op(6, u16s(10, 2), 0, 1, 7))...),
	"sparse leaves page":       body(TypeCompensation, op(6, u16s(page.Size-2, 1), 1, 2, 7, 8)...),
	"sparse in update":         body(TypeUpdate, op(6, u16s(10, 1), 0, 1, 7)...),
	"checkpoint-end short":     body(TypeCheckpointEnd, 1, 2, 3),
	"update without ops":       body(TypeUpdate),
	"unknown op":               body(TypeUpdate, 9, 0, 0),
	"fields cut":               body(TypeUpdate, op(1, u16s(10), 0)...),
	"images cut":               body(TypeUpdate, op(1, u16s(10, 4), 1, 2, 3, 4, 5)...),
	"empty write":              body(TypeUpdate, op(1, u16s(10, 0))...),
	"write leaves page":        body(TypeUpdate, op(1, u16s(page.Size-1, 2), 1, 2, 3, 4)...),
	"offset beyond page":       body(TypeUpdate, op(1, u16s(60000, 1), 1, 2)...),
	"move leaves page":         body(TypeUpdate, op(3, u16s(page.Size-4, 10, 8), 1, 2, 3, 4, 5, 6, 7, 8)...),
	"move onto itself":         body(TypeUpdate, op(3, u16s(10, 10, 8))...),
	"lost bytes cut":           body(TypeUpdate, op(3, u16s(12, 10, 8), 1)...),
	"cell beyond payload":      body(TypeUpdate, op(4, u16s(0, page.Size))...),
	"removed cell cut":         body(TypeUpdate, op(5, u16s(0, 100, 4), 1, 2)...),
	"unknown op 6":             body(TypeUpdate, op(6, u16s(100, 200, 0))...),
	"fill in compensation":     body(TypeCompensation, op(2, u16s(10, 1), 7)...),
	"compensation with before": body(TypeCompensation, op(1, u16s(10, 2), 1, 2, 3, 4)...),
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	for name, b := range corruptBodies {
		if _, _, err := decodeRecord(frame(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	// Well-formed operations decode.
	ops := cat(op(1, u16s(10, 4), 1, 2, 3, 4, 5, 6, 7, 8), op(3, u16s(14, 16, 9), 1, 2))
	good := body(TypeUpdate, ops...)
	r, n, err := decodeRecord(frame(good))
	if err != nil || n != 8+len(good) || !bytes.Equal(r.Ops, ops) {
		t.Fatalf("well-formed record: %+v, %d, %v", r, n, err)
	}
	// A length field pointing past the buffer is a truncated log, whatever
	// the rest says.
	cut := frame(good)
	if _, _, err := decodeRecord(cut[:len(cut)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("cut record: %v, want ErrTruncated", err)
	}
	huge := frame(good)
	binary.LittleEndian.PutUint32(huge, 0xFFFFFFFF)
	if _, _, err := decodeRecord(huge); !errors.Is(err, ErrTruncated) {
		t.Fatalf("huge length: %v, want ErrTruncated", err)
	}
	tiny := frame(good)
	binary.LittleEndian.PutUint32(tiny, 5)
	if _, _, err := decodeRecord(tiny); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length below a header: %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeRecord feeds the payload parser arbitrary bodies behind a valid
// frame, and the frame parser arbitrary bytes.  Decoding must never panic
// or read past its input; what it accepts must pass the Append check and
// encode back to the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	for _, b := range corruptBodies {
		f.Add(b, true)
	}
	update, compensation := sampleOps()
	f.Add(body(TypeCompensation, compensation...), true)
	enc := (&Record{Type: TypeUpdate, TxID: 3, PageID: 4, Ops: update}).encode(nil)
	f.Add(enc[8:], true)
	f.Add(enc, false)
	f.Add(enc[:len(enc)-3], false)
	f.Add((&Record{Type: TypeCommit, TxID: 5}).encode(nil), false)
	f.Add(make([]byte, 64), false)

	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		in := data
		if framed {
			in = frame(data)
		}
		// Decode from a buffer with no spare capacity, so that an over-read
		// is an out-of-range panic rather than a silent success.
		in = append(make([]byte, 0, len(in)), in...)
		r, n, err := decodeRecord(in)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		if err := r.check(); err != nil {
			t.Fatalf("decoded record fails the append check: %v", err)
		}
		if !bytes.Equal(r.encode(nil), in[:n]) {
			t.Fatal("decoded record does not encode back to its bytes")
		}
	})
}

// TestOldFormatLogRefused: Open on a device whose control block carries an
// earlier format's magic — single-range update records, the two-block
// double-write slot the log tail entries replaced, or byte-diff edit lists —
// fails with ErrOldFormat and leaves the device alone, on devices with and
// without a barrier.
func TestOldFormatLogRefused(t *testing.T) {
	for _, magic := range []uint32{oldestControlMagic, oldestControlMagic + 1, controlMagic - 1} {
		ctrl := make([]byte, device.BlockSize)
		binary.LittleEndian.PutUint32(ctrl, magic)
		plain := newLogDevice()
		if err := plain.WriteAt(0, ctrl); err != nil {
			t.Fatal(err)
		}
		plain.ResetStats()
		barrier := newTearDev(map[int64][]byte{0: ctrl})
		for _, dev := range []device.Dev{plain, barrier} {
			if _, err := Open(dev); !errors.Is(err, ErrOldFormat) {
				t.Fatalf("magic %#x: Open = %v, want ErrOldFormat", magic, err)
			}
		}
		if w := plain.Stats().Writes() + int64(barrier.events()); w != 0 {
			t.Fatalf("magic %#x: Open wrote %d blocks to logs it refused", magic, w)
		}
	}
}

var benchSink *Record

// BenchmarkRecordEncodeDecode encodes and decodes the update record of a
// b-tree leaf insert: a move by eighteen bytes, the new entry filled into
// the gap, and a one-byte write of the count.
func BenchmarkRecordEncodeDecode(b *testing.B) {
	ops := cat(op(3, u16s(420, 402, 1998), make([]byte, 18)...), op(2, u16s(402, 18), bytes.Repeat([]byte{5}, 18)...),
		op(1, u16s(32, 1), 41, 42))
	r := &Record{Type: TypeUpdate, TxID: 7, PageID: 1234, Ops: ops}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for b.Loop() {
		buf = r.encode(buf[:0])
		got, _, err := decodeRecord(buf)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = got
	}
}

// TestPageWrittenRecord: a page-written record round-trips its pages, one
// without pages is refused, and a payload that is not whole entries is
// corrupt.
func TestPageWrittenRecord(t *testing.T) {
	r := &Record{Type: TypePageWritten, Written: []PageWrite{{ID: 7, LSN: 4096}, {ID: 1 << 40, LSN: 1<<50 + 3}}}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	enc := r.encode(nil)
	if len(enc) != r.encodedSize() {
		t.Fatalf("encoded %d bytes, encodedSize says %d", len(enc), r.encodedSize())
	}
	got, n, err := decodeRecord(enc)
	if err != nil || n != len(enc) || got.Type != TypePageWritten || !slices.Equal(got.Written, r.Written) {
		t.Fatalf("decoded %+v, %d, %v", got, n, err)
	}
	if err := (&Record{Type: TypePageWritten}).check(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty page-written record: %v, want ErrInvalid", err)
	}
	for _, payload := range [][]byte{nil, make([]byte, pageWriteSize-1), make([]byte, pageWriteSize+1)} {
		if _, _, err := decodeRecord(frame(body(TypePageWritten, payload...))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("page-written payload of %d bytes: %v, want ErrCorrupt", len(payload), err)
		}
	}
}
