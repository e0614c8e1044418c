package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face/internal/device"
)

// span is one traced interval.  Times are nanoseconds since the tracer
// started; Parent is the ID of the span that caused this one (0 = none)
// and Req the request all spans of one client operation share (0 = none).
type span struct {
	ID     int64
	Name   string
	Layer  string
	Start  int64
	End    int64
	Parent int64
	Req    int64
}

// tracer keeps spans in memory for the traced pass and writes them out when
// the run ends.  A nil *tracer records nothing, which is how the untraced
// pass runs the same code.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	// phase is the open phase span; req the in-flight request on the
	// single-client workload (0 elsewhere).  Device spans take the request
	// as parent when there is one and the phase otherwise.
	phase atomic.Int64
	req   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record stores a finished span under a fresh ID.
func (t *tracer) record(name, layer string, start, end, parent, req int64) {
	t.recordID(t.nextID.Add(1), name, layer, start, end, parent, req)
}

func (t *tracer) recordID(id int64, name, layer string, start, end, parent, req int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Start: start, End: end, Parent: parent, Req: req})
	t.mu.Unlock()
}

// beginPhase opens a phase span and makes it the parent of device spans
// recorded until the returned func closes it.
func (t *tracer) beginPhase(name string) func() {
	if t == nil {
		return func() {}
	}
	id, start := t.nextID.Add(1), t.now()
	t.phase.Store(id)
	return func() {
		t.recordID(id, name, "phase", start, t.now(), 0, 0)
		t.phase.Store(0)
	}
}

// request records one client operation.  due is when an open loop had it
// scheduled — the span starts there, and the wait until it was sent is a
// child span of its own; a closed loop passes the zero time.  With own set,
// device spans recorded while fn runs take the request as parent; that is
// only meaningful with a single client.
func (t *tracer) request(name, layer string, due time.Time, own bool, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.nextID.Add(1)
	sent := t.now()
	start := sent
	if !due.IsZero() {
		start = int64(due.Sub(t.t0))
	}
	if own {
		t.req.Store(id)
	}
	fn()
	if own {
		t.req.Store(0)
	}
	end := t.now()
	if sent > start {
		t.record(name+".queued", "client", start, sent, id, id)
	}
	t.recordID(id, name, layer, start, end, t.phase.Load(), id)
}

// selfTimes sums, per layer, span time not covered by the span's direct
// children.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make(map[int64]int64, len(spans))
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for id, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var total, hi int64
		for _, k := range ks {
			lo := k.Start
			if lo < hi {
				lo = hi
			}
			if k.End > lo {
				total += k.End - lo
				hi = k.End
			}
		}
		covered[id] = total
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return out
}

// writeTraces stores the spans of each workload's traced pass as one JSON
// array; ids are unique within a workload.
func writeTraces(path string, traces map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	sep := "["
	for _, name := range names {
		for _, s := range traces[name].spans {
			fmt.Fprintf(w, "%s\n{\"workload\":%q,\"id\":%d,\"name\":%q,\"layer\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}",
				sep, name, s.ID, s.Name, s.Layer, s.Start, s.End, s.Parent, s.Req)
			sep = ","
		}
	}
	fmt.Fprint(w, "\n]\n")
	// Flushed to disk here, inside the traced run: tens of megabytes left
	// dirty in the page cache would be written back during whichever run
	// comes next, and on ext4 every fsync of that run would wait for them.
	err = w.Flush()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedev wraps a device so every transfer becomes a span.  The embedded
// Dev forwards sizes and statistics untouched.
type tracedev struct {
	device.Dev
	tr    *tracer
	layer string
}

// syncTracedev adds the durability barrier.  Only devices that have one
// get it: the engine stages a torn-tail slot on any log device that
// implements device.Syncer, and the simulated devices must not acquire one
// by being traced.
type syncTracedev struct {
	*tracedev
	sync device.Syncer
}

// wrapTraced returns dev itself without a tracer.
func wrapTraced(dev device.Dev, layer string, tr *tracer) device.Dev {
	if tr == nil || dev == nil {
		return dev
	}
	td := &tracedev{Dev: dev, tr: tr, layer: layer}
	if s, ok := dev.(device.Syncer); ok {
		return &syncTracedev{tracedev: td, sync: s}
	}
	return td
}

func (d *tracedev) span(op string, start int64) {
	req := d.tr.req.Load()
	parent := req
	if parent == 0 {
		parent = d.tr.phase.Load()
	}
	d.tr.record(d.Name()+"."+op, d.layer, start, d.tr.now(), parent, req)
}

func (d *tracedev) ReadAt(blk int64, p []byte) error {
	defer d.span("read", d.tr.now())
	return d.Dev.ReadAt(blk, p)
}

func (d *tracedev) WriteAt(blk int64, p []byte) error {
	defer d.span("write", d.tr.now())
	return d.Dev.WriteAt(blk, p)
}

func (d *tracedev) ReadRun(blk int64, n int, fn func(i int, p []byte) error) error {
	defer d.span("readrun", d.tr.now())
	return d.Dev.ReadRun(blk, n, fn)
}

func (d *tracedev) WriteRun(blk int64, pages [][]byte) error {
	defer d.span("writerun", d.tr.now())
	return d.Dev.WriteRun(blk, pages)
}

func (d *syncTracedev) Sync() error {
	defer d.span("sync", d.tr.now())
	return d.sync.Sync()
}
