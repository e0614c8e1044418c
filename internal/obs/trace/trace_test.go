package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.Start(7, "get"); got != nil {
		t.Fatalf("nil tracer Start = %v, want nil", got)
	}
	if id := tr.MintID(); id != 0 {
		t.Fatalf("nil tracer MintID = %v, want 0", id)
	}
	tr.Finish(nil)
	tr.Event("ignored")
	tr.OnBurst(func(int64) {})
	if s := tr.Stats(); s != (Stats{}) {
		t.Fatalf("nil tracer Stats = %+v, want zero", s)
	}
	if d := tr.Dump(); len(d.Pinned) != 0 || len(d.Sampled) != 0 {
		t.Fatalf("nil tracer Dump = %+v, want empty", d)
	}
	if tr.SyncStall() != 0 {
		t.Fatal("nil tracer thresholds should be zero")
	}

	var trace *Trace
	trace.Span("x", time.Now(), time.Millisecond, 0, "")
	trace.Pin(PinSlow, "")
	if trace.ID() != 0 || trace.Kind() != "" || trace.Total() != 0 {
		t.Fatal("nil trace accessors should be zero")
	}
	if trace.Spans() != nil || trace.Pins() != nil {
		t.Fatal("nil trace slices should be nil")
	}
	if j := trace.JSON(); j.ID != "" {
		t.Fatalf("nil trace JSON = %+v, want zero", j)
	}
}

func TestTraceSpansRecordOffsets(t *testing.T) {
	tc := New(Config{})
	tr := tc.Start(0, "set")
	if tr.ID() == 0 {
		t.Fatal("Start with id 0 should mint an ID")
	}
	t0 := tr.Start().Add(2 * time.Millisecond)
	tr.Span("lock_wait", t0, time.Millisecond, 42, "X")
	tr.Span("wal_append", t0.Add(time.Millisecond), 3*time.Millisecond, 0, "")
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "lock_wait" || spans[0].Page != 42 || spans[0].Note != "X" {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[0].Start != 2*time.Millisecond || spans[0].Dur != time.Millisecond {
		t.Fatalf("span 0 timing = %+v", spans[0])
	}
	if spans[1].Start != 3*time.Millisecond {
		t.Fatalf("span 1 offset = %v, want 3ms", spans[1].Start)
	}
	// Offsets before the trace start clamp to zero rather than going
	// negative in the JSON.
	tr.Span("early", tr.Start().Add(-time.Second), time.Microsecond, 0, "")
	if got := tr.Spans()[2].Start; got != 0 {
		t.Fatalf("pre-start span offset = %v, want 0", got)
	}
}

func TestTraceSpanTruncation(t *testing.T) {
	tc := New(Config{})
	tr := tc.Start(0, "batch")
	for i := 0; i < maxSpans+10; i++ {
		tr.Span("buffer", tr.Start(), time.Microsecond, uint64(i), "")
	}
	if len(tr.Spans()) != maxSpans {
		t.Fatalf("got %d spans, want cap %d", len(tr.Spans()), maxSpans)
	}
	if tr.JSON().TruncatedSpans != 10 {
		t.Fatalf("truncated = %d, want 10", tr.JSON().TruncatedSpans)
	}
}

func TestTracePinOncePerKind(t *testing.T) {
	tc := New(Config{})
	tr := tc.Start(0, "commit")
	tr.Pin(PinDeadlock, "cycle A")
	tr.Pin(PinDeadlock, "cycle B")
	tr.Pin(PinStall, "durable wait 80ms")
	if got := len(tr.Pins()); got != 2 {
		t.Fatalf("got %d pins, want 2 (one per kind)", got)
	}
	if tr.Pins()[0].Detail != "cycle A" {
		t.Fatalf("first pin detail = %q, want the original", tr.Pins()[0].Detail)
	}
}

func TestTraceTailRetention(t *testing.T) {
	tc := New(Config{SampleEvery: 4, SlowTx: time.Hour})
	// 8 unpinned fast traces: exactly 2 sampled (1-in-4), none pinned.
	for i := 0; i < 8; i++ {
		tc.Finish(tc.Start(0, "get"))
	}
	st := tc.Stats()
	if st.Completed != 8 || st.Pinned != 0 || st.Sampled != 2 {
		t.Fatalf("stats after fast traces = %+v", st)
	}
	// A pinned trace bypasses sampling.
	tr := tc.Start(0, "set")
	tr.Pin(PinShed, "admission queue full")
	tc.Finish(tr)
	st = tc.Stats()
	if st.Pinned != 1 {
		t.Fatalf("pinned = %d, want 1", st.Pinned)
	}
	pinned := tc.Pinned()
	if len(pinned) != 1 || pinned[0].Pins()[0].Kind != PinShed {
		t.Fatalf("pinned ring = %+v", pinned)
	}
	if pinned[0].Total() <= 0 {
		t.Fatal("Finish should seal a positive total")
	}
}

func TestTraceSlowPinThreshold(t *testing.T) {
	tc := New(Config{SlowTx: time.Nanosecond})
	tr := tc.Start(0, "set")
	time.Sleep(100 * time.Microsecond)
	tc.Finish(tr)
	pinned := tc.Pinned()
	if len(pinned) != 1 {
		t.Fatalf("slow trace not pinned: %+v", tc.Stats())
	}
	if pinned[0].Pins()[0].Kind != PinSlow {
		t.Fatalf("pin kind = %v, want slow_tx", pinned[0].Pins()[0].Kind)
	}
	// SlowTx 0 disables slow pinning entirely.
	off := New(Config{SlowTx: 0, SampleEvery: -1})
	tr = off.Start(0, "set")
	time.Sleep(100 * time.Microsecond)
	off.Finish(tr)
	if got := off.Stats().Pinned; got != 0 {
		t.Fatalf("pinned with SlowTx=0: %d", got)
	}
}

func TestTraceMintIDsUnique(t *testing.T) {
	tc := New(Config{})
	seen := make(map[ID]bool)
	for i := 0; i < 10000; i++ {
		id := tc.MintID()
		if id == 0 {
			t.Fatal("minted zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %v after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestTraceAdoptsWireID(t *testing.T) {
	tc := New(Config{})
	tr := tc.Start(0xfeed, "get")
	if tr.ID() != 0xfeed {
		t.Fatalf("trace ID = %v, want the wire-supplied 0xfeed", tr.ID())
	}
	if got := tr.ID().String(); got != "000000000000feed" {
		t.Fatalf("ID string = %q", got)
	}
}

func TestJournalRingOverwritesOldest(t *testing.T) {
	tc := New(Config{Capacity: 4, SampleEvery: -1})
	for i := 0; i < 10; i++ {
		tr := tc.Start(ID(i+1), "op")
		tr.Pin(PinSlow, fmt.Sprint(i))
		tc.Finish(tr)
	}
	pinned := tc.Pinned()
	if len(pinned) != 4 {
		t.Fatalf("ring holds %d, want 4", len(pinned))
	}
	// Oldest-first: traces 7,8,9,10 survive.
	for i, tr := range pinned {
		if want := ID(i + 7); tr.ID() != want {
			t.Fatalf("slot %d = trace %v, want %v", i, tr.ID(), want)
		}
	}
}

func TestJournalConcurrentAppendSnapshot(t *testing.T) {
	tc := New(Config{Capacity: 32, SampleEvery: 2})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr := tc.Start(0, "op")
				tr.Span("lock_wait", tr.Start(), time.Microsecond, uint64(i), "S")
				if i%3 == 0 {
					tr.Pin(PinDeadlock, "cycle")
				}
				tc.Finish(tr)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for {
		d := tc.Dump()
		for _, j := range d.Pinned {
			if j.ID == "" || j.Total <= 0 {
				t.Errorf("incoherent pinned trace in snapshot: %+v", j)
			}
		}
		select {
		case <-done:
			goto settled
		default:
		}
	}
settled:
	st := tc.Stats()
	if st.Completed != st.Started {
		t.Fatalf("completed %d != started %d", st.Completed, st.Started)
	}
	if st.Pinned == 0 || st.Sampled == 0 {
		t.Fatalf("expected both retention paths exercised: %+v", st)
	}
}

func TestJournalDumpJSONRoundTrip(t *testing.T) {
	tc := New(Config{Capacity: 8})
	tr := tc.Start(0xabc, "set")
	tr.Span("durable_wait", tr.Start(), 80*time.Millisecond, 0, "")
	tr.Pin(PinStall, "durable wait 80ms")
	tc.Finish(tr)
	tc.Event("open: complete")

	raw, err := json.Marshal(tc.Dump())
	if err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Pinned) != 1 || back.Pinned[0].ID != "0000000000000abc" {
		t.Fatalf("round-tripped dump = %+v", back)
	}
	if back.Pinned[0].Pins[0].Kind != PinStall {
		t.Fatalf("pin kind lost: %+v", back.Pinned[0].Pins)
	}
	if len(back.Events) != 1 || !strings.Contains(back.Events[0].Msg, "open") {
		t.Fatalf("events lost: %+v", back.Events)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	tc := New(Config{Events: 4})
	for i := 0; i < 9; i++ {
		tc.Event(fmt.Sprintf("event %d", i))
	}
	ev := tc.Events()
	if len(ev) != 4 {
		t.Fatalf("flight ring holds %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := fmt.Sprintf("event %d", i+5); e.Msg != want {
			t.Fatalf("event %d = %q, want %q", i, e.Msg, want)
		}
		if e.Time.IsZero() {
			t.Fatal("event missing timestamp")
		}
	}
}

func TestFlightRecorderBurstTrigger(t *testing.T) {
	tc := New(Config{BurstCount: 3, BurstWindow: time.Minute, SampleEvery: -1})
	fired := make(chan int64, 4)
	tc.OnBurst(func(n int64) { fired <- n })
	for i := 0; i < 5; i++ {
		tr := tc.Start(0, "set")
		tr.Pin(PinShed, "queue full")
		tc.Finish(tr)
	}
	select {
	case n := <-fired:
		if n != 3 {
			t.Fatalf("burst handler got n=%d, want 3", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("burst handler never fired")
	}
	// Exactly once within the window, even past the threshold.
	select {
	case <-fired:
		t.Fatal("burst handler fired twice in one window")
	case <-time.After(50 * time.Millisecond):
	}
	if got := tc.Stats().Bursts; got != 1 {
		t.Fatalf("bursts = %d, want 1", got)
	}
	// Slow pins do not feed the burst window — only deadlocks/sheds.
	tc2 := New(Config{BurstCount: 1, BurstWindow: time.Minute, SlowTx: time.Nanosecond})
	tc2.OnBurst(func(n int64) { fired <- n })
	tr := tc2.Start(0, "set")
	time.Sleep(10 * time.Microsecond)
	tc2.Finish(tr)
	select {
	case <-fired:
		t.Fatal("slow pin should not trigger the anomaly burst handler")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestFlightRecConcurrentEvents(t *testing.T) {
	tc := New(Config{Events: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tc.Event(fmt.Sprintf("w%d e%d", w, i))
				if i%10 == 0 {
					tc.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(tc.Events()); got != 16 {
		t.Fatalf("flight ring holds %d, want 16", got)
	}
}
