package wal

// Torn-write sweep for the log tail: a fixed script is run once on a device
// that journals every block write and every barrier, and the device image of
// a crash is then built for every event of the journal — with every subset
// (up to a bound) of the writes no barrier has covered persisted, and the
// block being written cut at every 512-byte boundary.  Each image is
// reopened: every record whose Force had returned must be iterated, and
// what is iterated must be a prefix of what was appended.  Then more is
// appended, the second journal is crashed the same way, and both must hold
// again — with everything the first reopen iterated counted as acknowledged,
// because recovery acted on it.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

const (
	tearBlocks = 64 // small, so a scan that runs into garbage stays cheap
	sector     = 512
	sectors    = device.BlockSize / sector
)

// tearEvent is one journal entry: a block write (the image as written) or,
// with blk < 0, a barrier; ok tells whether the barrier succeeded.
type tearEvent struct {
	blk  int64
	data []byte
	ok   bool
}

// tearDev is a log device with a barrier.  The manager under test sees every
// write at once (as it would through an operating system's cache); what a
// crash leaves on the medium is worked out from the journal by crashImage.
type tearDev struct {
	*device.Device

	mu      sync.Mutex
	journal []tearEvent
	syncErr error
}

// newTearDev returns a device whose medium holds base before the first event.
func newTearDev(base map[int64][]byte) *tearDev {
	d := &tearDev{Device: device.New("log", device.ProfileCheetah15K, tearBlocks)}
	for blk, data := range base {
		if err := d.Device.WriteAt(blk, data); err != nil {
			panic(err)
		}
	}
	return d
}

func (d *tearDev) WriteAt(blk int64, p []byte) error {
	if err := d.Device.WriteAt(blk, p); err != nil {
		return err
	}
	d.mu.Lock()
	d.journal = append(d.journal, tearEvent{blk: blk, data: append([]byte(nil), p[:device.BlockSize]...)})
	d.mu.Unlock()
	return nil
}

func (d *tearDev) WriteRun(blk int64, pages [][]byte) error {
	for i, p := range pages {
		if err := d.WriteAt(blk+int64(i), p); err != nil {
			return err
		}
	}
	return nil
}

func (d *tearDev) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journal = append(d.journal, tearEvent{blk: -1, ok: d.syncErr == nil})
	return d.syncErr
}

func (d *tearDev) failSyncs(err error) {
	d.mu.Lock()
	d.syncErr = err
	d.mu.Unlock()
}

func (d *tearDev) events() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.journal)
}

// tear says how the write in flight at the crash reached the medium: its
// first cut sectors did; the rest of the block keeps what it held, or —
// damaged — holds garbage, which is what an interrupted read-modify-write of
// a physical sector larger than 512 bytes leaves.  cut 0 and damaged is the
// whole block garbled.  The control block is never damaged: its live bytes
// fit one sector, and the log rewrites it in place on that assumption
// (ROADMAP item 4 keeps the hazard).
type tear struct {
	cut     int
	damaged bool
}

var allTears = func() []tear {
	ts := []tear{{cut: sectors}}
	for c := 0; c < sectors; c++ {
		ts = append(ts, tear{cut: c}, tear{cut: c, damaged: true})
	}
	return ts
}()

// crashImage returns the medium after a crash at event k of the journal:
// everything up to the last successful barrier before k, the writes after
// it whose bit is set in subset (bit i: the i-th of them), and event k
// itself — if it is a write — torn as tr says.
func crashImage(base map[int64][]byte, journal []tearEvent, k int, subset uint64, tr tear) map[int64][]byte {
	img := make(map[int64][]byte, len(base)+8)
	for blk, data := range base {
		img[blk] = data
	}
	covered := -1
	for i := 0; i < k; i++ {
		if journal[i].blk < 0 && journal[i].ok {
			covered = i
		}
	}
	bit := 0
	for i := 0; i < k; i++ {
		ev := journal[i]
		if ev.blk < 0 {
			continue
		}
		if i > covered {
			persisted := subset>>bit&1 == 1
			bit++
			if !persisted {
				continue
			}
		}
		img[ev.blk] = ev.data
	}
	if k < len(journal) && journal[k].blk >= 0 {
		ev := journal[k]
		if tr.damaged && ev.blk < controlBlocks {
			tr.damaged = false
		}
		blk := make([]byte, device.BlockSize)
		if tr.damaged {
			for i := range blk {
				blk[i] = 0xA5
			}
		} else {
			copy(blk, img[ev.blk])
		}
		copy(blk, ev.data[:tr.cut*sector])
		img[ev.blk] = blk
	}
	return img
}

// pendingAt counts the writes before event k that no successful barrier
// before k covers.
func pendingAt(journal []tearEvent, k int) int {
	n := 0
	for i := 0; i < k; i++ {
		switch {
		case journal[i].blk >= 0:
			n++
		case journal[i].ok:
			n = 0
		}
	}
	return n
}

// subsetsOf enumerates the subsets of n pending writes: all of them up to
// four writes, beyond that none, all, every single one and every all but
// one.
func subsetsOf(n int) []uint64 {
	all := uint64(1)<<n - 1
	if n <= 4 {
		out := make([]uint64, 0, all+1)
		for s := uint64(0); s <= all; s++ {
			out = append(out, s)
		}
		return out
	}
	out := []uint64{0, all}
	for i := 0; i < n; i++ {
		out = append(out, uint64(1)<<i, all&^(uint64(1)<<i))
	}
	return out
}

// tearRec identifies an appended record: the transaction number is unique,
// the size follows from it.
type tearRec struct {
	tx   TxID
	size int
}

// tearRun is one scripted run: what was appended, and for each record the
// number of journal events after which its Force had returned
// (math.MaxInt: never).
type tearRun struct {
	m        *Manager
	dev      *tearDev
	salt     int // the two runs fill their records differently
	appended []tearRec
	ackedAt  []int
}

func (r *tearRun) add(t *testing.T, size int) {
	t.Helper()
	tx := TxID(len(r.appended) + 1)
	rec := &Record{Type: TypeCommit, TxID: tx}
	if size > recordHeaderSize {
		img := make([]byte, (size-recordHeaderSize-page.WriteHeaderSize)/2)
		for i := range img {
			img[i] = byte(int(tx)*31 + i*7 + r.salt)
		}
		rec = &Record{Type: TypeUpdate, TxID: tx, PageID: 1, Before: img, After: img}
	}
	if _, err := r.m.Append(rec); err != nil {
		t.Fatal(err)
	}
	r.appended = append(r.appended, tearRec{tx: tx, size: rec.encodedSize()})
	r.ackedAt = append(r.ackedAt, math.MaxInt)
}

func (r *tearRun) force(t *testing.T) {
	t.Helper()
	if err := r.m.ForceAll(); err != nil {
		t.Fatal(err)
	}
	r.acked()
}

func (r *tearRun) acked() {
	n := r.dev.events()
	for i, at := range r.ackedAt {
		if at == math.MaxInt {
			r.ackedAt[i] = n
		}
	}
}

// toBlockEnd returns the record size that leaves `short` bytes of the
// current log block free.
func (r *tearRun) toBlockEnd(short int) int {
	return device.BlockSize - int(r.m.off(r.m.Next()))%device.BlockSize - short
}

// tearScript is the first run: small commits that share a block, a record
// that spans a block boundary, one force that fills several blocks, a
// barrier that fails and is retried, a stretch longer than the ring with no
// force in it (under the pipeline the stalled reserver gets ring-drain
// rounds, which write without a barrier), a checkpoint, and small commits
// again.
func tearScript(t *testing.T, r *tearRun) {
	for i := 0; i < 3; i++ {
		r.add(t, 0)
		r.force(t)
	}
	r.add(t, r.toBlockEnd(40))
	r.force(t)
	r.add(t, 200) // spans the boundary
	r.force(t)
	for i := 0; i < 3; i++ {
		r.add(t, 3000)
	}
	r.force(t)

	r.add(t, 0)
	boom := errors.New("injected fsync failure")
	r.dev.failSyncs(boom)
	if err := r.m.ForceAll(); !errors.Is(err, boom) {
		t.Fatalf("ForceAll with a failing barrier: %v", err)
	}
	r.dev.failSyncs(nil)
	r.add(t, 0)
	r.force(t)

	for i := 0; i < 7; i++ {
		r.add(t, 3000)
	}
	r.add(t, 0)
	r.force(t)

	begin, err := r.m.LogCheckpointBegin()
	if err != nil {
		t.Fatal(err)
	}
	r.appended = append(r.appended, tearRec{size: recordHeaderSize})
	r.ackedAt = append(r.ackedAt, math.MaxInt)
	if err := r.m.LogCheckpointEnd(begin); err != nil {
		t.Fatal(err)
	}
	r.appended = append(r.appended, tearRec{size: recordHeaderSize + 8})
	r.ackedAt = append(r.ackedAt, math.MaxInt)
	r.acked()

	for i := 0; i < 2; i++ {
		r.add(t, 0)
		r.force(t)
	}
}

// tearScriptAfter is what the reopened log gets: records of other sizes and
// other bytes than the first run's, so that a block of one run never
// completes a record of the other.  The first round fills the tail block
// recovery found partial — its first write in place, before any entry of
// this run holds its image — and reaches into the next; commits follow.
func tearScriptAfter(t *testing.T, r *tearRun) {
	r.add(t, r.toBlockEnd(0)+2000)
	r.force(t)
	r.add(t, 0)
	r.force(t)
	r.add(t, 90)
	r.add(t, 0)
	r.force(t)
}

// reopen opens the image of a crash and returns what the log iterates.
func reopen(cfg Config, img map[int64][]byte) (*tearRun, []tearRec, error) {
	dev := newTearDev(img)
	m, err := OpenConfig(dev, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("Open: %w", err)
	}
	var got []tearRec
	err = m.Iterate(0, func(r *Record) error {
		got = append(got, tearRec{tx: r.TxID, size: r.encodedSize()})
		return nil
	})
	if err != nil {
		m.Close()
		return nil, nil, fmt.Errorf("Iterate: %w", err)
	}
	return &tearRun{m: m, dev: dev, salt: 101}, got, nil
}

// checkRecovered: got must hold every acknowledged record and be a prefix
// of appended.
func checkRecovered(got, appended []tearRec, acked int) error {
	if len(got) < acked {
		return fmt.Errorf("%d records recovered, %d were acknowledged", len(got), acked)
	}
	if len(got) > len(appended) {
		return fmt.Errorf("%d records recovered, %d were appended", len(got), len(appended))
	}
	for i, g := range got {
		if g != appended[i] {
			return fmt.Errorf("record %d recovered as %+v, appended as %+v", i, g, appended[i])
		}
	}
	return nil
}

func ackedBy(ackedAt []int, k int) int {
	n := 0
	for _, at := range ackedAt {
		if at <= k {
			n++
		}
	}
	return n
}

// forEachCrash calls fn with the image of every crash of the journal the
// enumeration covers; full selects every tear of the write in flight, a
// sample of them otherwise.
func forEachCrash(base map[int64][]byte, journal []tearEvent, full bool, fn func(k int, name string, img map[int64][]byte)) {
	tears := allTears
	subsets := subsetsOf
	if !full {
		tears = []tear{{cut: 0, damaged: true}, {cut: 3}, {cut: sectors}}
		subsets = func(n int) []uint64 { return []uint64{0, uint64(1)<<n - 1} }
	}
	for k := 0; k <= len(journal); k++ {
		trs := tears
		if k == len(journal) || journal[k].blk < 0 {
			trs = []tear{{}} // a barrier, or the end: nothing is in flight
		}
		for _, s := range subsets(pendingAt(journal, k)) {
			for _, tr := range trs {
				fn(k, fmt.Sprintf("event %d/%d, unsynced writes kept %b, %+v", k, len(journal), s, tr), crashImage(base, journal, k, s, tr))
			}
		}
	}
}

func TestWalTornTailSweep(t *testing.T) {
	t.Run("pipeline", func(t *testing.T) { tearSweep(t, Config{Segments: 2, SegmentBytes: 8192}) })
}

func tearSweep(t *testing.T, cfg Config) {
	dev := newTearDev(nil)
	m, err := OpenConfig(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := &tearRun{m: m, dev: dev}
	tearScript(t, first)
	m.Close()
	if m.Stats().ReserveStalls == 0 {
		t.Fatal("the script never stalled a reserver: no ring-drain round was swept")
	}
	if m.Stats().TornSlotWrites == 0 {
		t.Fatal("the script wrote no log tail entry")
	}

	crashes, second := 0, 0
	forEachCrash(nil, dev.journal, true, func(k int, where string, img map[int64][]byte) {
		crashes++
		run, got, err := reopen(cfg, img)
		if err == nil {
			err = checkRecovered(got, first.appended, ackedBy(first.ackedAt, k))
		}
		if err != nil {
			t.Fatalf("crash at %s: %v", where, err)
		}
		// Every fifth image gets the second run and the second crash (the
		// enumeration is a product; the sample keeps the test in seconds).
		if testing.Short() || crashes%5 != 0 {
			run.m.Close()
			return
		}
		opened := run.dev.events() // a crash inside Open's own repair counts too
		run.appended = append(run.appended, got...)
		run.ackedAt = make([]int, len(got))
		tearScriptAfter(t, run)
		run.m.Close()
		forEachCrash(img, run.dev.journal, false, func(k2 int, where2 string, img2 map[int64][]byte) {
			second++
			appended, acked := run.appended, ackedBy(run.ackedAt, k2)
			if k2 < opened {
				// Nothing of the second run exists yet, and nobody has
				// seen what the first reopen would have iterated.
				appended, acked = first.appended, ackedBy(first.ackedAt, k)
			}
			run2, got2, err := reopen(cfg, img2)
			if err == nil {
				run2.m.Close()
				err = checkRecovered(got2, appended, acked)
			}
			if err != nil {
				t.Fatalf("crash at %s, then at %s: %v", where, where2, err)
			}
		})
	})
	t.Logf("%d journal events, %d crashes reopened, %d second crashes", len(dev.journal), crashes, second)
}

// TestWalStaleTailEntryNeverRepairsNewLog: a device that held a log gets a
// new one (its control block no longer says a log exists).  The entries the
// old log left must be cleared before the new log exists, so that a reopen
// never copies an old image over a block of the new log.
func TestWalStaleTailEntryNeverRepairsNewLog(t *testing.T) {
	dev := newTearDev(nil)
	m, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	commitOne(t, m, 1)
	commitOne(t, m, 2)
	m.Close()
	for idx := 0; idx < 2; idx++ {
		if _, ok, err := m.readTailEntry(idx); err != nil || !ok {
			t.Fatalf("test setup: entry %d of the old log is not valid (%v)", idx, err)
		}
	}
	if err := dev.WriteAt(0, make([]byte, device.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	wiped := dev.events()

	m, err = Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	for idx := 0; idx < 2; idx++ {
		if _, ok, err := m.readTailEntry(idx); err != nil || ok {
			t.Fatalf("entry %d of the old log is still valid under the new one (%v)", idx, err)
		}
	}
	// Wherever the initialisation of the new log is cut short, what is
	// reopened is an empty log.
	forEachCrash(nil, dev.journal, true, func(k int, where string, img map[int64][]byte) {
		if k < wiped {
			return
		}
		run, recs, err := reopen(Config{}, img)
		if err != nil {
			t.Fatalf("crash at %s: %v", where, err)
		}
		run.m.Close()
		if len(recs) != 0 {
			t.Fatalf("crash at %s: the new log iterates %+v, records of the old one", where, recs)
		}
	})
}
