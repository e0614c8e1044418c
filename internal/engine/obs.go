package engine

import (
	"context"
	"fmt"
	"time"

	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/obs/trace"
)

// This file is the engine's observability layer: wall-clock phase tracing
// on the commit path, latency histograms, and scrape-time counters for
// every substrate (buffer pool, WAL, lock manager, flash cache).
//
// The layer is always on.  Every Update carries a *txTrace; a View
// carries none, so the read path records nothing beyond its latency
// histogram and its page operations read no extra clock.

// Commit-path phases.  Each is a disjoint wall-time window inside one
// Update transaction, so their sum never exceeds the transaction's total
// latency:
//
//	admission    waiting to be admitted (a lifecycle fence, the writer
//	             semaphore)
//	lock_wait    blocked in the page lock manager (charged only when a
//	             request queued)
//	buffer       pinning pages off the pool's fast path: latch waits,
//	             misses and the evictions that make room for them (a
//	             DRAM hit is not timed), and allocating pages
//	wal_append   stalled reserving log buffer space (charged only when
//	             a reservation found the buffer full)
//	durable_wait the commit-time log force (group-commit park included)
//	closure      the transaction closure's own time net of the engine
//	             phases above (user code + everything untraced)
const (
	phaseAdmission = iota
	phaseLockWait
	phaseBuffer
	phaseWalAppend
	phaseDurable
	phaseClosure
	numPhases
)

var phaseNames = [numPhases]string{
	"admission", "lock_wait", "buffer", "wal_append", "durable_wait", "closure",
}

// txTrace accumulates per-phase wall time for one write transaction.
// Read-only transactions carry a nil trace.
type txTrace struct {
	start time.Time
	phase [numPhases]time.Duration
	// span is the request-scoped trace the phases also record into as
	// real spans: the request's own, or one the engine started.
	span *trace.Trace
	// own marks a span the engine started itself (no request context
	// carried one); the scheduler finishes it after commit or abort.
	own bool
}

// charge adds d to phase p and records the occurrence as a span of the
// transaction's trace, with its page and note annotations.  The caller
// computes d, so this helper reads no clocks.
func (tr *txTrace) charge(p int, t0 time.Time, d time.Duration, pg uint64, note string) {
	tr.phase[p] += d
	tr.span.Span(phaseNames[p], t0, d, pg, note)
}

// traceCtxKey carries a *trace.Trace through a request context into
// Update, where the engine attaches its phase spans to it.
type traceCtxKey struct{}

// WithTrace returns a context carrying the request-scoped trace; the
// engine's Update attaches its commit-path spans to it.  A nil trace
// returns ctx unchanged.
func WithTrace(ctx context.Context, tr *trace.Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// traceFrom extracts the request trace, if any.
func traceFrom(ctx context.Context) *trace.Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*trace.Trace)
	return tr
}

// dbObs holds the engine's registered metrics and the span tracer.
type dbObs struct {
	reg *obs.Registry

	txTotal *obs.Histogram
	view    *obs.Histogram
	phases  [numPhases]*obs.Histogram

	// tracer owns the span journal and flight recorder; it pins the trace
	// of a transaction slower than Config.SlowTxThreshold.
	tracer *trace.Tracer
}

// newDBObs builds the engine's metric set in cfg.Obs (or a private
// registry when the caller supplied none).
func newDBObs(cfg *Config) *dbObs {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &dbObs{
		reg:     reg,
		txTotal: reg.Histogram("face_tx_total_seconds"),
		view:    reg.Histogram("face_view_seconds"),
		tracer:  trace.New(trace.Config{SlowTx: cfg.SlowTxThreshold}),
	}
	for i := range o.phases {
		o.phases[i] = reg.Histogram(`face_tx_phase_seconds{phase="` + phaseNames[i] + `"}`)
	}
	return o
}

// event records a flight-recorder lifecycle entry (open, recovery
// phases, checkpoint, close).
func (o *dbObs) event(format string, args ...any) {
	o.tracer.Event(fmt.Sprintf(format, args...))
}

// finishOwn seals a span the engine started itself (an Update whose
// context carried no request trace), handing it to the tracer's
// tail-retention policy.  Request-owned spans are finished by the
// server instead.
func (o *dbObs) finishOwn(tr *txTrace) {
	if tr.own {
		o.tracer.Finish(tr.span)
	}
}

// recordCommit folds a committed write transaction's trace into the phase
// histograms.  A read-only transaction (nil trace) records nothing.
func (o *dbObs) recordCommit(tr *txTrace) {
	if tr == nil {
		return
	}
	total := time.Since(tr.start)
	// A traced commit leaves its trace ID as the exemplar on the latency
	// bucket it lands in, so the histogram's tail links back to a
	// concrete trace in the journal.
	o.txTotal.ObserveExemplar(total, uint64(tr.span.ID()))
	for i, h := range o.phases {
		h.Observe(tr.phase[i])
	}
}

// phasesSnapshot captures the phase histograms for engine.Snapshot.
func (o *dbObs) phasesSnapshot() obs.TxPhases {
	return obs.TxPhases{
		Total:       o.txTotal.Snapshot(),
		Admission:   o.phases[phaseAdmission].Snapshot(),
		LockWait:    o.phases[phaseLockWait].Snapshot(),
		Buffer:      o.phases[phaseBuffer].Snapshot(),
		WalAppend:   o.phases[phaseWalAppend].Snapshot(),
		DurableWait: o.phases[phaseDurable].Snapshot(),
		Closure:     o.phases[phaseClosure].Snapshot(),
	}
}

// registerMetrics exposes each substrate's existing counters as
// scrape-time callback metrics, so /metrics shows the whole stack without
// adding a single write to any hot path.  Called once at the end of Open.
func (db *DB) registerMetrics() {
	reg, t := db.obs.reg, db.obs.tracer
	reg.CounterFunc("face_committed_total", db.Committed)
	reg.CounterFunc("face_trace_started_total", func() int64 { return t.Stats().Started })
	reg.CounterFunc("face_trace_completed_total", func() int64 { return t.Stats().Completed })
	reg.CounterFunc("face_trace_pinned_total", func() int64 { return t.Stats().Pinned })
	reg.CounterFunc("face_trace_sampled_total", func() int64 { return t.Stats().Sampled })
	reg.CounterFunc("face_aborted_total", db.aborted.Load)
	reg.CounterFunc("face_checkpoints_total", db.Checkpoints)

	// Buffer pool.
	reg.CounterFunc("face_pool_hits_total", func() int64 { return db.pool.Stats().Hits })
	reg.CounterFunc("face_pool_misses_total", func() int64 { return db.pool.Stats().Misses })
	reg.CounterFunc("face_pool_evictions_total", func() int64 { return db.pool.Stats().Evictions })
	reg.CounterFunc("face_pool_pin_waits_total", func() int64 { return db.pool.Stats().PinWaits })
	reg.CounterFunc("face_pool_latch_waits_total", func() int64 { return db.pool.Stats().LatchWaits })

	// WAL commit pipeline.
	reg.CounterFunc("face_wal_appends_total", func() int64 { return db.log.Stats().Appends })
	reg.CounterFunc("face_wal_forces_total", func() int64 { return db.log.Stats().Forces })
	reg.CounterFunc("face_wal_reserve_stalls_total", func() int64 { return db.log.Stats().ReserveStalls })
	reg.CounterFunc("face_wal_syncs_total", func() int64 { return db.log.Stats().Syncs })

	// Page lock manager.
	reg.CounterFunc("face_lock_waits_total", func() int64 { return db.locks.Stats().Waits })
	reg.CounterFunc("face_lock_deadlocks_total", func() int64 { return db.locks.Stats().Deadlocks })

	// Flash cache.
	if db.cache != nil {
		reg.CounterFunc("face_cache_lookups_total", func() int64 { return db.cache.Stats().Lookups })
		reg.CounterFunc("face_cache_hits_total", func() int64 { return db.cache.Stats().Hits })
		reg.CounterFunc("face_cache_flash_writes_total", func() int64 { return db.cache.Stats().FlashPageWrites })
	}
}

// Metrics returns the registry holding the engine's histograms and
// counters.  faced serves it at /metrics; embedders can render it with
// obs.Registry.WritePrometheus.
func (db *DB) Metrics() *obs.Registry { return db.obs.reg }

// Tracer returns the span tracer owning the trace journal and flight
// recorder.  faced hands it to the server layer and serves its Dump at
// /debug/traces.
func (db *DB) Tracer() *trace.Tracer { return db.obs.tracer }
