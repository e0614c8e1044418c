// Package obs is the engine's observability substrate: a lock-free
// log-bucketed latency histogram, atomic counters and gauges, and a named
// registry that renders everything as Prometheus text and expvar JSON.
//
// # Design
//
// Recording must be cheap enough to sit on the commit path of every
// transaction and the execute path of every served request, so nothing in
// this package takes a lock on the hot path:
//
//   - Histogram buckets, counts, sums and the max watermark are plain
//     atomics.  Observe is a handful of atomic adds plus one CAS loop for
//     the max.
//   - Every recording method is nil-safe: calling Observe/Add/Set on a nil
//     receiver is a no-op, so a server configured without a registry
//     (server.Config.Obs left nil) records nothing without guards of its
//     own.  The engine always has its registry.
//
// # Histogram semantics
//
// Histogram buckets are log-spaced with 16 sub-buckets per power of two
// (an HDR-histogram-style layout), so quantile estimates carry at most
// ~6.25% relative error at any magnitude from nanoseconds to hours.
// Snapshots are mergeable and subtractable: Sub(prior) isolates a
// measurement window the same way the engine's counter snapshots do, and
// Merge folds per-kind histograms into an aggregate.  Quantiles report
// the upper bound of the containing bucket, so they never understate a
// latency.
//
// # Naming
//
// Metric names follow Prometheus conventions and may carry a literal
// label set: Histogram(`face_server_op_seconds{op="get"}`) registers one
// labeled series; the renderer groups series sharing a base name under
// one # TYPE line.  Histograms render as Prometheus summaries (quantile
// series plus _sum and _count), which scrapers and the faceload
// /metrics parser consume without bucket math.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.  The zero value
// is ready to use; a nil Counter ignores Add and reads as 0.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.  No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.  The zero value is ready to
// use; a nil Gauge ignores writes and reads as 0.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.  No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).  No-op on a nil
// receiver.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
