package server

import (
	"strings"
	"testing"

	"github.com/reprolab/face/internal/obs"
)

// TestMetricsServerOps checks the server-side request tracing: per-op
// latency histograms, live gauges and admission counters all land on the
// shared registry, the same wiring faced serves at /metrics.
func TestMetricsServerOps(t *testing.T) {
	reg := obs.NewRegistry()
	ts := startServer(t, Config{Writers: 2, Obs: reg}, 2)
	c := dial(t, ts, 1)

	if err := c.Create("m"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := c.Set("m", i, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		if _, found, err := c.Get("m", i); err != nil || !found {
			t.Fatalf("Get(%d) = found=%v, err=%v", i, found, err)
		}
	}
	if _, found, err := c.Get("m", 999); err != nil || found {
		t.Fatalf("Get(999) = found=%v, err=%v, want miss", found, err)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`face_server_op_seconds_count{op="set"} 10`,
		`face_server_op_seconds_count{op="get"} 11`,
		`face_server_op_seconds_count{op="create"} 1`,
		`face_server_op_seconds{op="set",quantile="0.99"} `,
		"face_server_requests_total 22",
		"face_server_rejected_total 0",
		"# TYPE face_server_inflight gauge",
		"# TYPE face_server_queue_depth gauge",
		"face_server_writers_busy 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered metrics:\n%s", want, out)
		}
	}
	// A request leaves the gate once its response is flushed, which the
	// client may see a moment before the server has counted it out.
	waitInFlight(t, ts.srv, 0)
}

// TestMetricsServerDisabled checks that a server without a registry
// records nothing and still serves.
func TestMetricsServerDisabled(t *testing.T) {
	ts := startServer(t, Config{Writers: 2}, 2)
	c := dial(t, ts, 1)
	if err := c.Create("m"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("m", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, h := range ts.srv.ops {
		if h != nil {
			t.Fatal("op histogram allocated without Config.Obs")
		}
	}
}
