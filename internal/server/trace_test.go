package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/obs/trace"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/server/client"
	"github.com/reprolab/face/internal/server/wire"
)

// startTracedServer runs the full faced stack — engine with tracing, a
// shared registry, and a server handed the engine's tracer — with a slow
// transaction threshold low enough that every write pins.
func startTracedServer(t *testing.T, slow time.Duration) (*testServer, *obs.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	db, err := engine.Open(engine.Config{
		Dir:             dir,
		BufferPages:     512,
		Policy:          engine.PolicyNone,
		MaxWriters:      4,
		NoFsync:         true,
		Obs:             reg,
		SlowTxThreshold: slow,
	})
	if err != nil {
		t.Fatalf("engine.Open: %v", err)
	}
	return serveDB(t, db, dir, Config{Writers: 4, Obs: reg, Tracer: db.Tracer()}), reg
}

// TestTraceServerPinsSlowRequest drives a traced client through the full
// stack and checks the journal: the slow write is pinned, its spans
// include both the server admission wait and the engine's commit phases,
// and the trace ID rides the op histogram as an exemplar.
func TestTraceServerPinsSlowRequest(t *testing.T) {
	ts, reg := startTracedServer(t, time.Nanosecond)
	c, err := client.Dial(ts.addr, client.Options{Trace: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	if err := c.Create("tr"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("tr", 7, []byte("v")); err != nil {
		t.Fatal(err)
	}

	dump := ts.db.Tracer().Dump()
	var set *trace.TraceJSON
	for i := range dump.Pinned {
		if dump.Pinned[i].Kind == "set" {
			set = &dump.Pinned[i]
		}
	}
	if set == nil {
		t.Fatalf("no pinned set trace in journal: %+v", dump.Pinned)
	}
	if len(set.Pins) == 0 || set.Pins[0].Kind != trace.PinSlow {
		t.Fatalf("pins = %+v, want slow_tx", set.Pins)
	}
	names := make(map[string]bool)
	for _, sp := range set.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"server_admission", "admission", "durable_wait"} {
		if !names[want] {
			t.Errorf("span %q missing from %+v", want, set.Spans)
		}
	}

	// The set op histogram carries the trace ID as a bucket exemplar.
	h := reg.Histogram(`face_server_op_seconds{op="set"}`)
	exemplars := h.Snapshot().ExemplarList()
	if len(exemplars) == 0 {
		t.Fatal("op histogram has no exemplars")
	}
	found := false
	for _, ex := range exemplars {
		if ex.TraceID == set.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("pinned trace %s not among exemplars %+v", set.ID, exemplars)
	}
}

// TestTraceServerAdoptsWireID sends a raw frame carrying a known trace ID
// and finds that exact ID in the journal — the propagation path a real
// client uses.
func TestTraceServerAdoptsWireID(t *testing.T) {
	ts, _ := startTracedServer(t, time.Nanosecond)
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	br := bufio.NewReader(nc)

	send := func(req *wire.Request) *wire.Response {
		t.Helper()
		if err := wire.WriteRequest(bw, req); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := send(&wire.Request{Op: wire.OpCreate, NS: "raw"}); resp.Status != wire.StatusOK {
		t.Fatalf("create: %d", resp.Status)
	}
	const id = 0xdeadbeefcafef00d
	resp := send(&wire.Request{
		Op: wire.OpSet, NS: "raw", Key: 1, Value: []byte("x"),
		Flags: wire.FlagTrace, TraceID: id,
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("set: %d", resp.Status)
	}

	want := fmt.Sprintf("%016x", uint64(id))
	dump := ts.db.Tracer().Dump()
	for _, tr := range dump.Pinned {
		if tr.ID == want {
			return
		}
	}
	t.Fatalf("trace %s not in pinned journal: %+v", want, dump.Pinned)
}

// TestTraceServerMintsForOldClients checks that requests without the wire
// extension (an old client) still enter the journal under server-minted
// IDs.
func TestTraceServerMintsForOldClients(t *testing.T) {
	ts, _ := startTracedServer(t, time.Nanosecond)
	c, err := client.Dial(ts.addr, client.Options{}) // Trace off
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Create("old"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("old", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := ts.db.Tracer().Stats()
	if st.Started == 0 || st.Completed == 0 || st.Pinned == 0 {
		t.Fatalf("stats = %+v, want traces started/completed/pinned", st)
	}
}

// TestTraceFinishPinsAnomalies unit-tests finishTrace's error mapping:
// a deadlock victim is pinned with its wait-for cycle, a shed request
// with the BUSY it returned.
func TestTraceFinishPinsAnomalies(t *testing.T) {
	tr := trace.New(trace.Config{})
	s := &Server{cfg: Config{Tracer: tr}}

	victim := tr.Start(0, "commit")
	derr := &lock.DeadlockError{
		Tx: 2, Page: 1, Mode: lock.Exclusive,
		Cycle: []lock.WaitEdge{{Tx: 2, Page: 1}, {Tx: 1, Page: 2}},
		Held:  []page.ID{2},
	}
	s.finishTrace(victim, fmt.Errorf("commit: %w", derr))

	shed := tr.Start(0, "set")
	s.finishTrace(shed, fmt.Errorf("wrapped: %w", ErrBusy))

	dump := tr.Dump()
	if len(dump.Pinned) != 2 {
		t.Fatalf("pinned = %+v, want 2 traces", dump.Pinned)
	}
	byKind := make(map[trace.PinKind]string)
	for _, p := range dump.Pinned {
		if len(p.Pins) != 1 {
			t.Fatalf("pins = %+v", p.Pins)
		}
		byKind[p.Pins[0].Kind] = p.Pins[0].Detail
	}
	if !strings.Contains(byKind[trace.PinDeadlock], "tx 2→page 1, tx 1→page 2") {
		t.Errorf("deadlock pin detail = %q, want the cycle", byKind[trace.PinDeadlock])
	}
	if !strings.Contains(byKind[trace.PinShed], "admission queue full") {
		t.Errorf("shed pin detail = %q", byKind[trace.PinShed])
	}
	// Two anomalies → the flight-recorder burst counter moved.
	if n := tr.Stats().Pinned; n != 2 {
		t.Errorf("Stats().Pinned = %d, want 2", n)
	}
}

// TestTraceServerAdmissionRefusedSpan checks acquire's refused path: a
// request shed by admission still records its server_admission span.
func TestTraceServerAdmissionRefusedSpan(t *testing.T) {
	tr := trace.New(trace.Config{})
	s := &Server{cfg: Config{Tracer: tr}, adm: newAdmission(1, 0)}
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.Release()

	req := tr.Start(0, "set")
	err := s.acquire(context.Background(), req)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("acquire = %v, want ErrBusy", err)
	}
	spans := req.Spans()
	if len(spans) != 1 || spans[0].Name != "server_admission" || spans[0].Note != "refused" {
		t.Fatalf("spans = %+v, want one refused server_admission span", spans)
	}
}
