// Package trace is the request-scoped companion to internal/obs: where
// the histograms say *that* the tail is slow, a trace says *which*
// request was slow and *why*.  It is zero-dependency and lock-free in
// the same sense as the histogram package — recording a span touches
// only the trace owned by the request's goroutine, and publishing a
// completed trace into the journal is a single atomic pointer store.
//
// Lifecycle: a Tracer mints (or adopts, when the client sent one over
// the wire) a trace ID per request, the server and engine attach spans
// as the request crosses them, and Finish applies tail-based retention:
// traces pinned for an anomaly (slow, deadlock victim, admission shed,
// WAL sync stall) land in the pinned ring; ordinary traces are sampled
// 1-in-N into a second ring.  Both rings are fixed-size and overwrite
// oldest-first, so the journal's memory is bounded no matter the
// request rate.
//
// Every method on Tracer and Trace is a no-op on a nil receiver, so a
// server configured without a tracer (server.Config.Tracer left nil)
// records nothing and needs no guards at its call sites.
package trace

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ID identifies one request-scoped trace.  Zero means "no trace".  IDs
// travel over the wire (client-minted) or are minted server-side, so
// they are only required to be unique enough for forensics, not
// cryptographic.
type ID uint64

// String renders the ID the way /debug/traces and log lines print it.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Span is one timed section of a trace.  Start is the offset from the
// trace's begin time, so spans order and nest without absolute clocks.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Page annotates engine spans with the page the phase touched
	// (lock-wait, buffer fetch, allocation); zero when not applicable.
	Page uint64 `json:"page,omitempty"`
	// Note carries a short free-form annotation (lock mode, stall
	// detail).
	Note string `json:"note,omitempty"`
}

// PinKind classifies why a trace was retained unconditionally.
type PinKind string

// Pin kinds.  Deadlock and shed pins also feed the anomaly-burst
// window that can trigger a flight-recorder dump.
const (
	PinSlow     PinKind = "slow_tx"
	PinDeadlock PinKind = "deadlock"
	PinShed     PinKind = "shed"
	PinStall    PinKind = "wal_sync_stall"
)

// PinReason is one recorded pin with its forensic detail (for a
// deadlock, the wait-for cycle; for a stall, the wait duration).
type PinReason struct {
	Kind   PinKind `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// maxSpans bounds a single trace: a batch commit touching hundreds of
// pages must not turn one journal slot into megabytes.  Overflow is
// counted, not silently dropped.
const maxSpans = 64

// Trace accumulates the spans of one request.  A trace is owned by the
// goroutine executing the request until Finish publishes it; after
// publication it is immutable.  Methods are no-ops on a nil receiver.
type Trace struct {
	id        ID
	kind      string
	start     time.Time
	total     time.Duration
	spans     []Span
	truncated int
	pins      []PinReason
	// spanBuf backs the first span, all that most served requests record,
	// so they cost no allocation beyond the trace's own.
	spanBuf [1]Span
}

// spanRoom is the capacity a trace's span list grows to first: enough for
// a short Update's phase spans, so they cost one allocation, not one for
// every doubling.
const spanRoom = 8

// ID returns the trace's identity (0 on nil).
func (t *Trace) ID() ID {
	if t == nil {
		return 0
	}
	return t.id
}

// Kind returns the operation label the trace was started with.
func (t *Trace) Kind() string {
	if t == nil {
		return ""
	}
	return t.kind
}

// Start returns the trace's begin time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Total returns the end-to-end duration; zero until Finish.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return t.total
}

// Spans returns the recorded spans (shared slice; treat as read-only).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Pins returns the recorded pin reasons (shared slice; read-only).
func (t *Trace) Pins() []PinReason {
	if t == nil {
		return nil
	}
	return t.pins
}

// Span records one completed section.  start is the section's absolute
// begin time, d its duration; page and note are optional annotations.
// Past maxSpans the span is counted as truncated instead of stored.
func (t *Trace) Span(name string, start time.Time, d time.Duration, page uint64, note string) {
	if t == nil {
		return
	}
	if len(t.spans) >= maxSpans {
		t.truncated++
		return
	}
	off := start.Sub(t.start)
	if off < 0 {
		off = 0
	}
	if len(t.spans) == cap(t.spans) && len(t.spans) < spanRoom {
		t.spans = append(make([]Span, 0, spanRoom), t.spans...)
	}
	t.spans = append(t.spans, Span{Name: name, Start: off, Dur: d, Page: page, Note: note})
}

// Pin marks the trace for unconditional retention.  One pin per kind:
// a batch that deadlocks twice is still one deadlock victim.
func (t *Trace) Pin(kind PinKind, detail string) {
	if t == nil {
		return
	}
	for i := range t.pins {
		if t.pins[i].Kind == kind {
			return
		}
	}
	t.pins = append(t.pins, PinReason{Kind: kind, Detail: detail})
}

// anomalous reports whether any pin should feed the burst window:
// slowness is a tail property, but deadlocks and sheds are events an
// operator wants correlated in time.
func (t *Trace) anomalous() bool {
	for i := range t.pins {
		if t.pins[i].Kind == PinDeadlock || t.pins[i].Kind == PinShed {
			return true
		}
	}
	return false
}

// Config sizes a Tracer.  Zero values take the defaults below; a
// negative SampleEvery or SyncStall disables that feature outright.
type Config struct {
	// Capacity is the slot count of each journal ring (pinned and
	// sampled).
	Capacity int
	// SampleEvery keeps one in every N unpinned traces.
	SampleEvery int
	// SlowTx pins any trace whose total reaches the threshold; zero
	// disables slow pinning (mirroring WithSlowTxThreshold).
	SlowTx time.Duration
	// SyncStall is the durable-wait duration past which the engine pins
	// a WAL sync stall.
	SyncStall time.Duration
	// BurstCount anomalies (deadlocks + sheds) within BurstWindow
	// invoke the burst handler once per window.
	BurstWindow time.Duration
	BurstCount  int
	// Events is the flight-recorder ring capacity.
	Events int
}

// Defaults applied by New for zero Config fields.
const (
	DefaultCapacity    = 256
	DefaultSampleEvery = 16
	DefaultSyncStall   = 50 * time.Millisecond
	DefaultBurstCount  = 32
	DefaultBurstWindow = 10 * time.Second
	DefaultEvents      = 128
)

// Stats are the tracer's monotonic counters.
type Stats struct {
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Pinned    int64 `json:"pinned"`
	Sampled   int64 `json:"sampled"`
	Bursts    int64 `json:"bursts"`
}

// Sub returns the window between prior and s.
func (s Stats) Sub(prior Stats) Stats {
	return Stats{
		Started:   s.Started - prior.Started,
		Completed: s.Completed - prior.Completed,
		Pinned:    s.Pinned - prior.Pinned,
		Sampled:   s.Sampled - prior.Sampled,
		Bursts:    s.Bursts - prior.Bursts,
	}
}

// Tracer mints trace IDs, applies the tail-retention policy, and owns
// the journal rings plus the flight recorder.  All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Tracer struct {
	cfg    Config
	idBase uint64
	idSeq  atomic.Uint64

	sampleSeq atomic.Uint64

	started   atomic.Int64
	completed atomic.Int64
	pinnedN   atomic.Int64
	sampledN  atomic.Int64
	burstsN   atomic.Int64

	pinned  ring[Trace]
	sampled ring[Trace]
	flight  ring[Event]

	winStart atomic.Int64 // unix nanos of the current burst window
	winCount atomic.Int64
	onBurst  atomic.Pointer[func(n int64)]
}

// New builds a Tracer, applying defaults for zero Config fields.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.SyncStall == 0 {
		cfg.SyncStall = DefaultSyncStall
	}
	if cfg.BurstCount <= 0 {
		cfg.BurstCount = DefaultBurstCount
	}
	if cfg.BurstWindow <= 0 {
		cfg.BurstWindow = DefaultBurstWindow
	}
	if cfg.Events <= 0 {
		cfg.Events = DefaultEvents
	}
	t := &Tracer{cfg: cfg, idBase: mix(uint64(time.Now().UnixNano()))}
	t.pinned.init(cfg.Capacity)
	t.sampled.init(cfg.Capacity)
	t.flight.init(cfg.Events)
	return t
}

// mix is splitmix64's finalizer: spreads a counter into an ID that does
// not collide trivially across processes started the same nanosecond.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MintID returns a fresh nonzero trace ID.
func (t *Tracer) MintID() ID {
	if t == nil {
		return 0
	}
	id := ID(mix(t.idBase + t.idSeq.Add(1)))
	if id == 0 {
		id = 1
	}
	return id
}

// Start begins a trace.  A zero id means the caller (an untraced or
// pre-tracing client) sent none, so one is minted here.  Nil tracer →
// nil trace, and every Trace method tolerates that.
func (t *Tracer) Start(id ID, kind string) *Trace {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	if id == 0 {
		id = t.MintID()
	}
	tr := &Trace{id: id, kind: kind, start: time.Now()}
	tr.spans = tr.spanBuf[:0]
	return tr
}

// Finish seals the trace and applies tail-based retention: pin if slow,
// keep pinned traces unconditionally, sample the rest 1-in-N.  After
// Finish the trace is immutable and may be read by journal snapshots.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.total = time.Since(tr.start)
	if t.cfg.SlowTx > 0 && tr.total >= t.cfg.SlowTx {
		tr.Pin(PinSlow, "total "+tr.total.String())
	}
	t.completed.Add(1)
	if len(tr.pins) > 0 {
		t.pinnedN.Add(1)
		t.pinned.append(tr)
		if tr.anomalous() {
			t.burstTick()
		}
		return
	}
	if n := t.cfg.SampleEvery; n > 0 && t.sampleSeq.Add(1)%uint64(n) == 0 {
		t.sampledN.Add(1)
		t.sampled.append(tr)
	}
}

// SyncStall returns the WAL sync-stall pin threshold (0 when disabled
// or nil).
func (t *Tracer) SyncStall() time.Duration {
	if t == nil || t.cfg.SyncStall < 0 {
		return 0
	}
	return t.cfg.SyncStall
}

// Stats returns the tracer's counters (zero on nil).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:   t.started.Load(),
		Completed: t.completed.Load(),
		Pinned:    t.pinnedN.Load(),
		Sampled:   t.sampledN.Load(),
		Bursts:    t.burstsN.Load(),
	}
}

// OnBurst installs the anomaly-burst handler, invoked (on its own
// goroutine) at most once per window when BurstCount deadlocks/sheds
// accumulate within BurstWindow.  faced uses it to dump the flight
// recorder without waiting for an operator's SIGQUIT.
func (t *Tracer) OnBurst(fn func(n int64)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onBurst.Store(nil)
		return
	}
	// Store a dedicated copy: h's only use is the atomic pointer, so the
	// parameter itself is never mixed between plain and atomic access.
	h := fn
	t.onBurst.Store(&h)
}

func (t *Tracer) burstTick() {
	now := time.Now().UnixNano()
	ws := t.winStart.Load()
	if now-ws > int64(t.cfg.BurstWindow) {
		if t.winStart.CompareAndSwap(ws, now) {
			t.winCount.Store(0)
		}
	}
	// Exactly one ticker observes the threshold crossing, so the
	// handler fires once per window even under concurrent anomalies.
	if int(t.winCount.Add(1)) == t.cfg.BurstCount {
		t.burstsN.Add(1)
		if h := t.onBurst.Load(); h != nil {
			go (*h)(int64(t.cfg.BurstCount))
		}
	}
}
