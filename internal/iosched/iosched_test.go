package iosched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/page"
)

func item(id page.ID, seq uint64, dirty bool) Item {
	b := page.NewBuf()
	b.Init(id, page.TypeHeap)
	return Item{ID: id, Data: b, Dirty: dirty, Seq: seq}
}

func TestRingFIFOOrder(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 5; i++ {
		if _, _, err := r.Put(item(page.ID(i), uint64(i), false)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.TakeBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 3 {
		t.Fatalf("batch = %v", got)
	}
	got, err = r.TakeBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 4 || got[1].ID != 5 {
		t.Fatalf("second batch = %v", got)
	}
}

func TestRingCoalescesPendingVersions(t *testing.T) {
	r := NewRing(4)
	if _, _, err := r.Put(item(7, 1, true)); err != nil {
		t.Fatal(err)
	}
	newer := item(7, 2, false)
	newer.Data.SetLSN(42)
	old, superseded, err := r.Put(newer)
	if err != nil {
		t.Fatal(err)
	}
	if !superseded || old.Seq != 1 || !old.Dirty {
		t.Fatalf("superseded=%v old=%+v", superseded, old)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1 (coalesced)", r.Len())
	}
	got, err := r.TakeBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	// The merged item keeps the newer image and the union of dirty flags.
	if len(got) != 1 || got[0].Seq != 2 || !got[0].Dirty || got[0].Data.LSN() != 42 {
		t.Fatalf("merged item = %+v", got[0])
	}
	s := r.Stats()
	if s.Coalesced != 1 {
		t.Fatalf("coalesced = %d", s.Coalesced)
	}
}

// Stats is a test helper exposing ring counters.
func (r *Ring) Stats() (s struct {
	Coalesced int64
	Stalls    int64
}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Coalesced = r.coalesced
	s.Stalls = r.stalls
	return s
}

func TestRingBackpressureBlocksAndWakes(t *testing.T) {
	r := NewRing(2)
	for i := 1; i <= 2; i++ {
		if _, _, err := r.Put(item(page.ID(i), uint64(i), false)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Put(item(3, 3, false))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Put on a full ring returned early (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := r.TakeBatch(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Put did not wake after TakeBatch freed a slot")
	}
}

func TestGroupWriterDrainAndBatching(t *testing.T) {
	r := NewRing(64)
	var mu sync.Mutex
	var flushed [][]page.ID
	w := NewGroupWriter(r, 8, func(batch []Item) error {
		mu.Lock()
		ids := make([]page.ID, len(batch))
		for i, it := range batch {
			ids[i] = it.ID
		}
		flushed = append(flushed, ids)
		mu.Unlock()
		return nil
	})
	for i := 1; i <= 30; i++ {
		if _, _, err := r.Put(item(page.ID(i), uint64(i), false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	var total, prev int
	for _, ids := range flushed {
		if len(ids) > 8 {
			t.Fatalf("batch of %d exceeds limit 8", len(ids))
		}
		for _, id := range ids {
			if int(id) != prev+1 {
				t.Fatalf("out-of-order flush: %d after %d", id, prev)
			}
			prev = int(id)
			total++
		}
	}
	mu.Unlock()
	if total != 30 {
		t.Fatalf("flushed %d items, want 30", total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupWriterDrainIsABarrier hammers the put→drain cycle: when Drain
// returns, every item staged before it must have been flushed — including
// a batch the writer had taken from the ring but not yet processed.
func TestGroupWriterDrainIsABarrier(t *testing.T) {
	r := NewRing(8)
	var flushed atomic.Int64
	w := NewGroupWriter(r, 4, func(batch []Item) error {
		time.Sleep(50 * time.Microsecond) // widen the taken-but-unflushed window
		flushed.Add(int64(len(batch)))
		return nil
	})
	var staged int64
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			staged++
			// Distinct ids so nothing coalesces away.
			if _, _, err := r.Put(item(page.ID(staged), uint64(staged), false)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := flushed.Load(); got != staged {
			t.Fatalf("round %d: Drain returned with %d/%d items flushed", round, got, staged)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDestagerInFlightVersionsLandInOrder pins the parallel-worker
// ordering guarantee: a newer destage of a page must not land before an
// older in-flight write of the same page, or the disk copy would regress.
func TestDestagerInFlightVersionsLandInOrder(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	var mu sync.Mutex
	var order []page.LSN
	d := NewDestager(16, 2, func(id page.ID, data page.Buf) error {
		if data.LSN() == 1 {
			started <- struct{}{}
			<-block // hold the old version's write in flight
		}
		mu.Lock()
		order = append(order, data.LSN())
		mu.Unlock()
		return nil
	})
	mk := func(lsn page.LSN) page.Buf {
		b := page.NewBuf()
		b.Init(5, page.TypeHeap)
		b.SetLSN(lsn)
		return b
	}
	if err := d.Enqueue(1, 5, mk(1)); err != nil {
		t.Fatal(err)
	}
	<-started // worker 1 is mid-write of LSN 1
	if err := d.Enqueue(2, 5, mk(2)); err != nil {
		t.Fatal(err)
	}
	// Give worker 2 every chance to (incorrectly) write LSN 2 first.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	premature := len(order) > 0
	mu.Unlock()
	if premature {
		t.Fatalf("newer version landed while the older write was in flight: %v", order)
	}
	close(block)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) == 0 || order[len(order)-1] != 2 {
		t.Fatalf("write order %v, want last = LSN 2", order)
	}
}

func TestGroupWriterFlushErrorFailsProducers(t *testing.T) {
	r := NewRing(1)
	boom := errors.New("boom")
	w := NewGroupWriter(r, 4, func([]Item) error { return boom })
	// The first Put triggers a failing flush; eventually Put and Drain
	// surface the sticky error instead of hanging.
	deadline := time.After(5 * time.Second)
	for {
		_, _, err := r.Put(item(1, 1, false))
		if errors.Is(err, boom) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error %v", err)
		}
		select {
		case <-deadline:
			t.Fatal("producer never saw the flush error")
		case <-time.After(time.Millisecond):
		}
	}
	if err := w.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want boom", err)
	}
	w.Abort()
}

func TestDestagerWritesAndWatermark(t *testing.T) {
	var mu sync.Mutex
	written := map[page.ID]page.LSN{}
	d := NewDestager(16, 2, func(id page.ID, data page.Buf) error {
		mu.Lock()
		written[id] = data.LSN()
		mu.Unlock()
		return nil
	})
	for i := 1; i <= 8; i++ {
		b := page.NewBuf()
		b.Init(page.ID(i), page.TypeHeap)
		b.SetLSN(page.LSN(100 + i))
		if err := d.Enqueue(uint64(i), page.ID(i), b); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitLanded(8)
	if min, ok := d.MinPending(); ok {
		t.Fatalf("pending position %d after WaitLanded(8)", min)
	}
	mu.Lock()
	n := len(written)
	mu.Unlock()
	if n != 8 {
		t.Fatalf("wrote %d pages, want 8", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDestagerSupersedesStaleVersion(t *testing.T) {
	release := make(chan struct{})
	var got []page.LSN
	var mu sync.Mutex
	d := NewDestager(16, 1, func(id page.ID, data page.Buf) error {
		<-release
		mu.Lock()
		got = append(got, data.LSN())
		mu.Unlock()
		return nil
	})
	mk := func(lsn page.LSN) page.Buf {
		b := page.NewBuf()
		b.Init(9, page.TypeHeap)
		b.SetLSN(lsn)
		return b
	}
	// Block the worker on a decoy so both versions of page 9 queue up.
	decoy := page.NewBuf()
	decoy.Init(1, page.TypeHeap)
	if err := d.Enqueue(1, 1, decoy); err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(2, 9, mk(10)); err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(3, 9, mk(20)); err != nil {
		t.Fatal(err)
	}
	// The newest version must be served by Lookup while pending.
	buf := page.NewBuf()
	if !d.Lookup(9, buf) || buf.LSN() != 20 {
		t.Fatalf("Lookup served LSN %d, want 20", buf.LSN())
	}
	close(release)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// The stale LSN 10 write was skipped; only the decoy and LSN 20 landed.
	for _, lsn := range got {
		if lsn == 10 {
			t.Fatal("stale version was written to disk")
		}
	}
	if got[len(got)-1] != 20 {
		t.Fatalf("final writes %v, want last = 20", got)
	}
}

func TestPipelineAbortDiscardsWithoutFlushing(t *testing.T) {
	r := NewRing(64)
	var flushes atomic.Int64
	gate := make(chan struct{})
	w := NewGroupWriter(r, 4, func(batch []Item) error {
		<-gate
		flushes.Add(int64(len(batch)))
		return nil
	})
	d := NewDestager(8, 1, func(page.ID, page.Buf) error { return nil })
	p := &Pipeline{Ring: r, Writer: w, Dest: d}
	for i := 1; i <= 20; i++ {
		if _, _, err := r.Put(item(page.ID(i), uint64(i), false)); err != nil {
			t.Fatal(err)
		}
	}
	// The writer holds at most one batch, stuck at the gate.  The gate opens
	// only once Abort has stopped the ring (Put refuses), so everything the
	// writer had not taken by then must be lost; Abort returns after the
	// batch in hand is flushed.
	aborted := make(chan struct{})
	go func() {
		p.Abort()
		close(aborted)
	}()
	for {
		if _, _, err := r.Put(item(99, 99, false)); err != nil {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	<-aborted
	if n := flushes.Load(); n > 4 {
		t.Fatalf("abort flushed %d items, more than the one batch of 4 in hand; staged pages should be lost", n)
	}
}

func TestPipelineStatsCounters(t *testing.T) {
	r := NewRing(4)
	w := NewGroupWriter(r, 4, func([]Item) error { return nil })
	d := NewDestager(4, 1, func(page.ID, page.Buf) error { return nil })
	p := &Pipeline{Ring: r, Writer: w, Dest: d}
	for i := 1; i <= 10; i++ {
		if _, _, err := r.Put(item(page.ID(i), uint64(i), false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Staged != 10 || s.BatchPages != 10 || s.Batches < 3 {
		t.Fatalf("stats = %+v", s)
	}
	if fill := s.GroupFill(); fill <= 0 || fill > 4 {
		t.Fatalf("group fill = %v", fill)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDestagerParallelWorkers(t *testing.T) {
	var inflight, peak atomic.Int64
	d := NewDestager(64, 4, func(id page.ID, data page.Buf) error {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return nil
	})
	for i := 1; i <= 32; i++ {
		b := page.NewBuf()
		b.Init(page.ID(i), page.TypeHeap)
		if err := d.Enqueue(uint64(i), page.ID(i), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrent destage writes = %d, want >= 2", peak.Load())
	}
}

func TestRingStopDiscardsOnFailure(t *testing.T) {
	r := NewRing(4)
	if _, _, err := r.Put(item(1, 1, false)); err != nil {
		t.Fatal(err)
	}
	failure := fmt.Errorf("device gone")
	r.Stop(true, failure)
	if _, err := r.TakeBatch(1); !errors.Is(err, failure) {
		t.Fatalf("TakeBatch = %v, want sticky failure", err)
	}
	if _, _, err := r.Put(item(2, 2, false)); !errors.Is(err, failure) {
		t.Fatalf("Put = %v, want sticky failure", err)
	}
}
