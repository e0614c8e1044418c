package bench

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// ServeResult is one served-traffic measurement: cmd/faceload driving
// cmd/faced over TCP with an open-loop arrival process.  It is the
// payload the facebench schema (since v5) carries for network serving,
// emitted as
//
//	{"schema": "facebench/v12", "experiments": {"serve": {...}}}
//
// Latencies are measured from each request's scheduled arrival time, not
// from its send time, so a stalled server shows up as growing latency
// instead of being hidden by coordinated omission.
type ServeResult struct {
	Label string `json:"label"`
	// Conns is the number of client TCP connections.
	Conns int `json:"conns"`
	// Workers is the number of in-flight request slots (goroutines).
	Workers int `json:"workers"`
	// OfferedQPS is the configured open-loop arrival rate; AchievedQPS is
	// completed requests divided by the measured duration.
	OfferedQPS  float64       `json:"offered_qps"`
	AchievedQPS float64       `json:"achieved_qps"`
	Duration    time.Duration `json:"duration_ns"`
	// Requests counts completions by outcome.  Busy are admission-control
	// rejections (retryable by contract, not retried by the generator so
	// overload stays visible); Dropped are arrivals abandoned because
	// every worker was still busy when their slot came up.
	Requests  int64 `json:"requests"`
	Succeeded int64 `json:"succeeded"`
	NotFound  int64 `json:"not_found"`
	Busy      int64 `json:"busy"`
	Timeouts  int64 `json:"timeouts"`
	Errors    int64 `json:"errors"`
	Dropped   int64 `json:"dropped"`
	// Workload shape.
	ReadFraction float64 `json:"read_fraction"`
	ValueSize    int     `json:"value_size"`
	Keys         uint64  `json:"keys"`
	Skew         float64 `json:"zipf_skew"`
	// Latency percentiles over successful and not-found completions.
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`
	// Server-side view, scraped from faced's /metrics endpoint at run
	// end when faceload is given -metrics.  The client percentiles above
	// include scheduling delay and network queueing; these do not, so the
	// gap between client p99 and server p99 is time spent queued.
	ServerScraped bool          `json:"server_scraped,omitempty"`
	ServerGetP50  time.Duration `json:"server_get_p50_ns,omitempty"`
	ServerGetP99  time.Duration `json:"server_get_p99_ns,omitempty"`
	ServerSetP50  time.Duration `json:"server_set_p50_ns,omitempty"`
	ServerSetP99  time.Duration `json:"server_set_p99_ns,omitempty"`
	// ServerShed is face_server_rejected_total: write requests refused
	// with BUSY by admission control over the server's lifetime.
	ServerShed int64 `json:"server_shed,omitempty"`
	// ServerPinnedTraces is face_trace_pinned_total: anomaly traces (slow
	// transactions, deadlock victims, admission sheds, WAL sync stalls)
	// pinned in the server's span journal, retrievable from faced's
	// /debug/traces endpoint.
	ServerPinnedTraces int64 `json:"server_pinned_traces,omitempty"`
}

// FillPercentiles computes the result's latency fields from a sample
// (sorted in place).
func (r *ServeResult) FillPercentiles(lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(p float64) time.Duration {
		idx := int(float64(len(lat))*p/100+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return lat[idx]
	}
	r.P50 = at(50)
	r.P95 = at(95)
	r.P99 = at(99)
	r.P999 = at(99.9)
	r.Max = lat[len(lat)-1]
}

// FormatServe renders one served-traffic result as the text table
// cmd/faceload prints without -json.
func FormatServe(w io.Writer, r *ServeResult) {
	fmt.Fprintf(w, "served traffic: %s\n", r.Label)
	fmt.Fprintf(w, "  conns %d  workers %d  reads %.0f%%  value %dB  keys %d  zipf %.2f\n",
		r.Conns, r.Workers, r.ReadFraction*100, r.ValueSize, r.Keys, r.Skew)
	fmt.Fprintf(w, "  offered %10.1f req/s   achieved %10.1f req/s   over %v\n",
		r.OfferedQPS, r.AchievedQPS, r.Duration.Round(time.Millisecond))
	fmt.Fprintf(w, "  %10s %10s %10s %10s %10s %10s %10s\n",
		"requests", "ok", "not-found", "busy", "timeout", "errors", "dropped")
	fmt.Fprintf(w, "  %10d %10d %10d %10d %10d %10d %10d\n",
		r.Requests, r.Succeeded, r.NotFound, r.Busy, r.Timeouts, r.Errors, r.Dropped)
	fmt.Fprintf(w, "  latency p50 %v  p95 %v  p99 %v  p99.9 %v  max %v\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.P999.Round(time.Microsecond),
		r.Max.Round(time.Microsecond))
	if r.ServerScraped {
		fmt.Fprintf(w, "  server  get p50 %v  p99 %v | set p50 %v  p99 %v | shed %d | pinned traces %d  (client-server p99 gap = queueing; pinned traces at /debug/traces)\n",
			r.ServerGetP50.Round(time.Microsecond), r.ServerGetP99.Round(time.Microsecond),
			r.ServerSetP50.Round(time.Microsecond), r.ServerSetP99.Round(time.Microsecond),
			r.ServerShed, r.ServerPinnedTraces)
	}
}
