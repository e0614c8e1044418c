package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/obs/trace"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/wal"
)

// traceDB opens a database with tracing on and every committed write
// pinned as slow, so the journal fills deterministically.
func traceDB(t *testing.T) *DB {
	t.Helper()
	r := newRig(t, PolicyNone)
	r.cfg.SlowTxThreshold = time.Nanosecond
	db := r.open(t, false)
	t.Cleanup(func() { db.Close() })
	return db
}

// TestTraceEngineSelfStartedSpans: an Update whose context carries no
// request trace starts (and finishes) its own, so embedded deployments
// feed the journal; its spans are the commit-path phases it waited in (an
// append that did not stall has none: TestWalAppendPhaseOnStallOnly).
func TestTraceEngineSelfStartedSpans(t *testing.T) {
	db := traceDB(t)
	ctx := context.Background()
	if err := db.Update(ctx, func(tx *Tx) error {
		id, err := tx.Alloc(page.TypeHeap)
		if err != nil {
			return err
		}
		writeValue(t, tx, id, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dump := db.Tracer().Dump()
	if len(dump.Pinned) == 0 {
		t.Fatalf("journal empty after a slow commit: %+v", dump)
	}
	tr := dump.Pinned[0]
	if tr.Kind != "update" {
		t.Fatalf("kind = %q, want update", tr.Kind)
	}
	if len(tr.Pins) == 0 || tr.Pins[0].Kind != trace.PinSlow {
		t.Fatalf("pins = %+v, want slow_tx", tr.Pins)
	}
	names := make(map[string]bool)
	var allocSpan bool
	for _, sp := range tr.Spans {
		names[sp.Name] = true
		if sp.Note == "alloc" && sp.Page != 0 {
			allocSpan = true
		}
	}
	for _, want := range []string{"admission", "buffer", "durable_wait"} {
		if !names[want] {
			t.Errorf("span %q missing from %+v", want, tr.Spans)
		}
	}
	if !allocSpan {
		t.Errorf("no buffer span annotated with the allocated page: %+v", tr.Spans)
	}
}

// TestTraceEngineAdoptsContextTrace: a request trace arriving through
// WithTrace collects the engine's phase spans and is NOT finished by the
// engine — its owner (the server) seals it.
func TestTraceEngineAdoptsContextTrace(t *testing.T) {
	db := traceDB(t)
	tracer := db.Tracer()
	tr := tracer.Start(trace.ID(0xabc), "commit")
	ctx := WithTrace(context.Background(), tr)
	if err := db.Update(ctx, func(tx *Tx) error {
		id, err := tx.Alloc(page.TypeHeap)
		if err != nil {
			return err
		}
		writeValue(t, tx, id, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The engine attached spans but did not finish the trace.
	if got := tracer.Stats().Completed; got != 0 {
		t.Fatalf("engine finished a request-owned trace (completed=%d)", got)
	}
	found := false
	for _, sp := range tr.Spans() {
		if sp.Name == "durable_wait" {
			found = true
		}
	}
	if !found {
		t.Fatalf("request trace missing engine spans: %+v", tr.Spans())
	}
	tracer.Finish(tr)
	dump := tracer.Dump()
	if len(dump.Pinned) != 1 || dump.Pinned[0].ID != "0000000000000abc" {
		t.Fatalf("pinned = %+v, want the request trace under its own ID", dump.Pinned)
	}
}

// TestTraceExemplarLinksJournal: the total-latency histogram's bucket
// exemplar is a trace ID retrievable from the journal.
func TestTraceExemplarLinksJournal(t *testing.T) {
	db := traceDB(t)
	if err := db.Update(context.Background(), func(tx *Tx) error {
		_, err := tx.Alloc(page.TypeHeap)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	exemplars := db.Metrics().Histogram("face_tx_total_seconds").Snapshot().ExemplarList()
	if len(exemplars) == 0 {
		t.Fatal("face_tx_total_seconds has no exemplars")
	}
	ids := make(map[string]bool)
	dump := db.Tracer().Dump()
	for _, tr := range dump.Pinned {
		ids[tr.ID] = true
	}
	for _, tr := range dump.Sampled {
		ids[tr.ID] = true
	}
	for _, ex := range exemplars {
		if !ids[ex.TraceID] {
			t.Errorf("exemplar %s not in the journal %v", ex.TraceID, ids)
		}
	}
}

// TestTraceEngineDeadlockPin forces the AB/BA cycle and checks the
// victim's self-started trace is pinned with the wait-for cycle.
func TestTraceEngineDeadlockPin(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	t.Cleanup(func() { db.Close() })

	var a, b page.ID
	if err := db.Update(context.Background(), func(tx *Tx) error {
		var err error
		if a, err = tx.Alloc(page.TypeHeap); err != nil {
			return err
		}
		b, err = tx.Alloc(page.TypeHeap)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	set := func(tx *Tx, id page.ID, v uint64) error {
		return tx.Modify(id, func(buf page.Buf) error {
			binary.LittleEndian.PutUint64(buf.Payload(), v)
			return nil
		})
	}
	haveA := make(chan struct{})
	haveB := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- db.Update(context.Background(), func(tx *Tx) error {
			if err := set(tx, a, 11); err != nil {
				return err
			}
			close(haveA)
			<-haveB
			return set(tx, b, 12)
		})
	}()
	go func() {
		defer wg.Done()
		errs <- db.Update(context.Background(), func(tx *Tx) error {
			if err := set(tx, b, 21); err != nil {
				return err
			}
			close(haveB)
			<-haveA
			return set(tx, a, 22)
		})
	}()
	wg.Wait()
	close(errs)
	deadlocks := 0
	for err := range errs {
		if errors.Is(err, ErrDeadlock) {
			deadlocks++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks != 1 {
		t.Fatalf("deadlocks = %d, want 1", deadlocks)
	}
	var victim *trace.TraceJSON
	dump := db.Tracer().Dump()
	for i := range dump.Pinned {
		for _, p := range dump.Pinned[i].Pins {
			if p.Kind == trace.PinDeadlock {
				victim = &dump.Pinned[i]
			}
		}
	}
	if victim == nil {
		t.Fatalf("no deadlock-pinned trace in journal: %+v", dump.Pinned)
	}
	detail := victim.Pins[0].Detail
	if !strings.Contains(detail, "cycle:") || !strings.Contains(detail, "held:") {
		t.Errorf("deadlock pin detail = %q, want cycle and held pages", detail)
	}
}

// TestNoLockSpanForImmediateGrant: an uncontended Update that reads,
// rewrites and re-reads eight pages — every lock granted at once or held
// already — records no lock_wait span and charges nothing to the phase,
// while a request that queues behind a writer records one span carrying
// its wait.
func TestNoLockSpanForImmediateGrant(t *testing.T) {
	db := traceDB(t)
	tracer := db.Tracer()
	ctx := context.Background()
	var ids []page.ID
	if err := db.Update(ctx, func(tx *Tx) error {
		for range 8 {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lockSpans := func(tr *trace.Trace) (n int, wait time.Duration) {
		for _, sp := range tr.Spans() {
			if sp.Name == "lock_wait" {
				n++
				wait += sp.Dur
			}
		}
		return n, wait
	}

	before := db.Snapshot().Phases
	tr := tracer.Start(trace.ID(1), "uncontended")
	if err := db.Update(WithTrace(ctx, tr), func(tx *Tx) error {
		for i, id := range ids {
			readValue(t, tx, id)
			writeValue(t, tx, id, uint64(i))
			readValue(t, tx, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := lockSpans(tr); n != 0 {
		t.Fatalf("uncontended Update recorded %d lock_wait spans: %+v", n, tr.Spans())
	}
	if p := db.Snapshot().Phases.Sub(before); p.LockWait.Sum != 0 {
		t.Fatalf("uncontended Update charged %v to lock_wait", time.Duration(p.LockWait.Sum))
	}
	tracer.Finish(tr)

	set := func(tx *Tx, v uint64) error {
		return tx.Modify(ids[0], func(buf page.Buf) error {
			binary.LittleEndian.PutUint64(buf.Payload(), v)
			return nil
		})
	}
	holding, release := make(chan struct{}), make(chan struct{})
	holder := make(chan error, 1)
	go func() {
		holder <- db.Update(ctx, func(tx *Tx) error {
			if err := set(tx, 100); err != nil {
				return err
			}
			close(holding)
			<-release
			return nil
		})
	}()
	<-holding
	time.AfterFunc(5*time.Millisecond, func() { close(release) })
	tr = tracer.Start(trace.ID(2), "contended")
	if err := db.Update(WithTrace(ctx, tr), func(tx *Tx) error { return set(tx, 200) }); err != nil {
		t.Fatal(err)
	}
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if n, wait := lockSpans(tr); n != 1 || wait <= 0 {
		t.Fatalf("queued Update recorded %d lock_wait spans of %v, want one with its wait: %+v", n, wait, tr.Spans())
	}
	tracer.Finish(tr)
}

// gatedDev is a data device whose next read of block blk, once gate is
// set, closes reading and then waits for gate to close.
type gatedDev struct {
	device.Dev
	mu            sync.Mutex
	blk           int64
	reading, gate chan struct{}
}

func (d *gatedDev) ReadAt(blk int64, p []byte) error {
	d.mu.Lock()
	reading, gate := d.reading, d.gate
	if blk != d.blk {
		gate = nil
	}
	if gate != nil {
		d.gate = nil
	}
	d.mu.Unlock()
	if gate != nil {
		close(reading)
		<-gate
	}
	return d.Dev.ReadAt(blk, p)
}

// TestBufferPhaseOffFastPathOnly: an Update whose pages are all in the
// buffer records no buffer span and charges nothing to the phase, while a
// miss, and a wait for the latch of a page another transaction is reading
// in, are each charged to the page they were for.
func TestBufferPhaseOffFastPathOnly(t *testing.T) {
	r := newRig(t, PolicyNone)
	dev := &gatedDev{Dev: r.data}
	r.cfg.DataDev = dev
	db := r.open(t, false)
	t.Cleanup(func() { db.Close() })
	tracer := db.Tracer()
	ctx := context.Background()

	// Twice the buffer's pages: the first ones are evicted by the last.
	var ids []page.ID
	if err := db.Update(ctx, func(tx *Tx) error {
		for i := range 2 * r.cfg.BufferPages {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			writeValue(t, tx, id, uint64(i))
			ids = append(ids, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// traced runs fn in an Update traced as name and returns the buffer
	// spans it recorded and the buffer phase it was charged.
	var traces uint64
	traced := func(name string, fn func(tx *Tx)) (spans []trace.Span, charged time.Duration) {
		t.Helper()
		before := db.Snapshot().Phases
		traces++
		tr := tracer.Start(trace.ID(traces), name)
		defer tracer.Finish(tr)
		if err := db.Update(WithTrace(ctx, tr), func(tx *Tx) error { fn(tx); return nil }); err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Spans() {
			if sp.Name == "buffer" {
				spans = append(spans, sp)
			}
		}
		return spans, time.Duration(db.Snapshot().Phases.Sub(before).Buffer.Sum)
	}

	resident := ids[len(ids)-8:]
	spans, charged := traced("hits", func(tx *Tx) {
		for i, id := range resident {
			readValue(t, tx, id)
			writeValue(t, tx, id, uint64(i))
		}
	})
	if len(spans) != 0 || charged != 0 {
		t.Fatalf("an Update of resident pages recorded buffer spans %+v and was charged %v", spans, charged)
	}

	spans, charged = traced("miss", func(tx *Tx) { readValue(t, tx, ids[0]) })
	if len(spans) != 1 || spans[0].Page != uint64(ids[0]) || spans[0].Dur <= 0 || charged <= 0 {
		t.Fatalf("a miss on page %d recorded buffer spans %+v and was charged %v", ids[0], spans, charged)
	}

	// A reader misses on ids[1] and holds its latch, reading, until the
	// gate opens; the traced Update then waits for the latch.  The gate
	// opens hold after the pool has counted that wait, so the wait lasts at
	// least hold however slowly the Update got to it.
	dev.mu.Lock()
	dev.blk, dev.reading, dev.gate = int64(ids[1]), make(chan struct{}), make(chan struct{})
	reading, gate := dev.reading, dev.gate
	dev.mu.Unlock()
	latchWaits := db.pool.Stats().LatchWaits
	reader := make(chan error, 1)
	go func() {
		reader <- db.View(ctx, func(tx *Tx) error {
			return tx.Read(ids[1], func(page.Buf) error { return nil })
		})
	}()
	<-reading
	const hold = 5 * time.Millisecond
	go func() {
		defer close(gate)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			if db.pool.Stats().LatchWaits > latchWaits {
				time.Sleep(hold)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	spans, charged = traced("latch", func(tx *Tx) { readValue(t, tx, ids[1]) })
	if err := <-reader; err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Page != uint64(ids[1]) || spans[0].Dur < hold || charged < hold {
		t.Fatalf("a wait of some %v for page %d's latch recorded buffer spans %+v and was charged %v", hold, ids[1], spans, charged)
	}
}

// gatedLog is a log device whose writes, once gate is set, wait for gate
// to close.
type gatedLog struct {
	device.Dev
	mu   sync.Mutex
	gate chan struct{}
}

func (d *gatedLog) wait() {
	d.mu.Lock()
	gate := d.gate
	d.mu.Unlock()
	if gate != nil {
		<-gate
	}
}

func (d *gatedLog) WriteAt(blk int64, p []byte) error {
	d.wait()
	return d.Dev.WriteAt(blk, p)
}

func (d *gatedLog) WriteRun(blk int64, pages [][]byte) error {
	d.wait()
	return d.Dev.WriteRun(blk, pages)
}

// TestWalAppendPhaseOnStallOnly: an Update whose appends find room in the
// log buffer records no wal_append span and charges nothing to the phase;
// one whose append stalls on a full buffer, while the log device holds its
// writes, is charged the stall.
func TestWalAppendPhaseOnStallOnly(t *testing.T) {
	r := newRig(t, PolicyNone)
	dev := &gatedLog{Dev: r.log}
	r.cfg.LogDev = dev
	db := r.open(t, false)
	t.Cleanup(func() { db.Close() })
	tracer := db.Tracer()
	ctx := context.Background()
	var ids []page.ID
	if err := db.Update(ctx, func(tx *Tx) error {
		for range 8 {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// traced runs fn in an Update and returns its wal_append spans and
	// the phase it was charged.
	traced := func(id trace.ID, fn func(tx *Tx) error) (spans int, charged time.Duration) {
		t.Helper()
		before := db.Snapshot().Phases
		tr := tracer.Start(id, "update")
		defer tracer.Finish(tr)
		if err := db.Update(WithTrace(ctx, tr), fn); err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Spans() {
			if sp.Name == "wal_append" {
				spans++
			}
		}
		return spans, time.Duration(db.Snapshot().Phases.Sub(before).WalAppend.Sum)
	}
	if spans, charged := traced(1, func(tx *Tx) error {
		writeValue(t, tx, ids[0], 7)
		return nil
	}); spans != 0 || charged != 0 {
		t.Fatalf("an append with room recorded %d wal_append spans and was charged %v", spans, charged)
	}

	// Whole pages rewritten, some 8 KiB of log each, fill the log buffer
	// while the device holds its writes; the gate opens hold after the
	// first stall.
	dev.mu.Lock()
	dev.gate = make(chan struct{})
	gate := dev.gate
	dev.mu.Unlock()
	stalls := db.Log().Stats().ReserveStalls
	const hold = 5 * time.Millisecond
	go func() {
		defer close(gate)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			if db.Log().Stats().ReserveStalls > stalls {
				time.Sleep(hold)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	rng := rand.New(rand.NewSource(5))
	spans, charged := traced(2, func(tx *Tx) error {
		for i := range wal.DefaultSegments * wal.DefaultSegmentBytes / (6 << 10) {
			if err := tx.Modify(ids[i%len(ids)], func(buf page.Buf) error {
				rng.Read(buf.Payload())
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	dev.mu.Lock()
	dev.gate = nil
	dev.mu.Unlock()
	if spans == 0 || charged < hold {
		t.Fatalf("appends that stalled some %v on a full log buffer recorded %d wal_append spans and were charged %v", hold, spans, charged)
	}
}

// TestTraceFlightRecorderLifecycle: Open, checkpoint, crash and recovery
// all leave flight-recorder events; a reopened database shows its
// recovery timeline.
func TestTraceFlightRecorderLifecycle(t *testing.T) {
	r := newRig(t, PolicyNone)
	db := r.open(t, false)
	var id page.ID
	if err := db.Update(context.Background(), func(tx *Tx) error {
		var err error
		id, err = tx.Alloc(page.TypeHeap)
		if err != nil {
			return err
		}
		writeValue(t, tx, id, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	events := func(db *DB) string {
		var sb strings.Builder
		for _, ev := range db.Tracer().Events() {
			sb.WriteString(ev.Msg)
			sb.WriteString("\n")
		}
		return sb.String()
	}
	got := events(db)
	for _, want := range []string{"open: wal ready", "open: complete"} {
		if !strings.Contains(got, want) {
			t.Errorf("events missing %q:\n%s", want, got)
		}
	}
	db.Crash()
	db2 := r.open(t, true)
	t.Cleanup(func() { db2.Close() })
	got = events(db2)
	for _, want := range []string{
		"recover: begin",
		"recover: redo/undo complete",
		"checkpoint: complete",
		"recover: complete",
		"open: complete",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("recovery events missing %q:\n%s", want, got)
		}
	}
}
