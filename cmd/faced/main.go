// Command faced serves a file-backed FaCE database over TCP.
//
// Usage:
//
//	faced -dir /var/lib/face [flags]
//
// The database lives in -dir (created on first start); reopening the same
// directory after a crash or a restart runs the engine's restart recovery
// automatically, so drain-and-restart and kill-and-restart converge on
// the same path.  Clients speak the length-prefixed binary protocol of
// internal/server/wire; internal/server/client is the Go client and
// cmd/faceload the load generator.
//
// Write admission is bounded by -writers concurrently executing write
// requests plus a -queue of waiters; anything beyond both is refused with
// a retryable BUSY instead of queueing without bound.
//
// With -metrics-addr the server also exposes a plain HTTP observability
// endpoint on a second listener:
//
//	/metrics       Prometheus text exposition: per-op server latency
//	               histograms, commit-path phase histograms, per-layer
//	               counters, admission and drain-gate gauges
//	/debug/traces  the span journal as JSON: pinned anomaly traces (slow
//	               transactions, deadlock victims with their wait-for
//	               cycles, admission sheds, WAL sync stalls), a sample of
//	               normal traces, flight-recorder lifecycle events, and
//	               the histogram exemplars linking latency buckets back
//	               to trace IDs
//	/debug/vars    the same registry as expvar JSON
//	/debug/pprof/  net/http/pprof profiles of the live process
//
// -stats-interval logs a one-line throughput/latency digest periodically,
// and -slow-tx pins the trace of every write transaction slower than the
// threshold in the journal, with a span per commit-path phase.
//
// SIGQUIT dumps the flight recorder — the journal and lifecycle events as
// one JSON log line — without stopping the server; a burst of pinned
// anomalies (deadlocks or sheds) triggers the same dump automatically.
//
// SIGINT or SIGTERM drains gracefully: listeners close, in-flight
// requests and open batches get up to -drain to finish (stragglers are
// cancelled through their request contexts), then the engine closes with
// a final checkpoint.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/reprolab/face"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/server"
	"github.com/reprolab/face/internal/server/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("faced", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:4320", "TCP listen address")
		dir         = fs.String("dir", "", "database directory (required; created on first start)")
		policy      = fs.String("policy", face.PolicyFaCEGSC, "flash cache policy ("+strings.Join(face.Policies(), ", ")+")")
		flashFrames = fs.Int("flash-frames", 4096, "flash cache frames")
		bufferPages = fs.Int("buffer-pages", 1024, "DRAM buffer pool pages")
		writers     = fs.Int("writers", server.DefaultWriters, "concurrently executing write requests")
		queue       = fs.Int("queue", 0, "write requests allowed to wait beyond -writers (0 = 4x writers, negative = none)")
		timeout     = fs.Duration("timeout", server.DefaultRequestTimeout, "per-request deadline cap (negative = none)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful drain deadline on SIGINT/SIGTERM")
		nofsync     = fs.Bool("nofsync", false, "disable commit/checkpoint fsync (faster, crash-unsafe)")
		metricsAddr = fs.String("metrics-addr", "", "HTTP listen address for /metrics, /debug/vars and /debug/pprof/ (empty = disabled)")
		statsEvery  = fs.Duration("stats-interval", 0, "log a periodic stats line at this interval (0 = disabled)")
		slowTx      = fs.Duration("slow-tx", 0, "pin the per-phase trace of write transactions slower than this, served at /debug/traces (0 = disabled)")
		verbose     = fs.Bool("v", false, "log per-lifecycle diagnostics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "faced: -dir is required")
		fs.Usage()
		return 2
	}

	logger := log.New(stderr, "faced: ", log.LstdFlags|log.Lmicroseconds)

	// One registry shared by the engine and the server, so /metrics shows
	// the whole stack.
	reg := obs.NewRegistry()

	start := time.Now()
	opts := []face.Option{
		face.WithDir(*dir),
		face.WithPolicy(*policy),
		face.WithFlashFrames(*flashFrames),
		face.WithBufferPages(*bufferPages),
		face.WithMaxWriters(*writers),
		face.WithMetricsRegistry(reg),
	}
	if *slowTx > 0 {
		opts = append(opts, face.WithSlowTxThreshold(*slowTx))
	}
	if *nofsync {
		opts = append(opts, face.WithFsync(false))
	}
	db, err := face.Open(opts...)
	if err != nil {
		logger.Printf("open %s: %v", *dir, err)
		return 1
	}
	if rep := db.RecoveryReport(); rep != nil {
		logger.Printf("recovered %s in %v (%d records scanned, %d redo on %d pages, %d pages skipped, %d undo, %d winners, %d losers, %d flash reads)",
			*dir, time.Since(start).Round(time.Millisecond),
			rep.RecordsScanned, rep.RedoApplied, rep.PagesRedone, rep.PagesSkipped, rep.UndoApplied,
			rep.WinnerTxns, rep.LoserTxns, rep.FlashReads)
	} else {
		logger.Printf("opened %s in %v", *dir, time.Since(start).Round(time.Millisecond))
	}

	cfg := server.Config{Writers: *writers, Queue: *queue, RequestTimeout: *timeout, Obs: reg, Tracer: db.Tracer()}
	if *verbose {
		cfg.Logf = logger.Printf
	}
	srv, err := server.New(db, cfg)
	if err != nil {
		logger.Printf("server: %v", err)
		db.Close()
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen %s: %v", *addr, err)
		db.Close()
		return 1
	}
	logger.Printf("serving on %s (policy %s, %d writers)", ln.Addr(), *policy, *writers)

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			logger.Printf("metrics listen %s: %v", *metricsAddr, err)
			ln.Close()
			db.Close()
			return 1
		}
		metricsSrv = &http.Server{Handler: metricsMux(reg, db.Tracer())}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("metrics serve: %v", err)
			}
		}()
		logger.Printf("metrics on http://%s/metrics (also /debug/vars, /debug/pprof/)", mln.Addr())
	}

	statsStop := make(chan struct{})
	if *statsEvery > 0 {
		go statsLoop(logger, srv, reg, *statsEvery, statsStop)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Flight recorder: SIGQUIT dumps the journal on demand, and the
	// tracer's burst detector dumps it on its own when pinned anomalies
	// (deadlocks, sheds) cluster in a window.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			dumpFlightRecorder(logger, "SIGQUIT", reg, db.Tracer())
		}
	}()
	db.Tracer().OnBurst(func(n int64) {
		dumpFlightRecorder(logger, fmt.Sprintf("anomaly burst: %d pinned traces in window", n), reg, db.Tracer())
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("%v: draining (deadline %v)", s, *drain)
	case err := <-serveErr:
		if err != nil {
			logger.Printf("serve: %v", err)
		}
	}

	close(statsStop)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if metricsSrv != nil {
		metricsSrv.Shutdown(ctx)
	}
	if err := db.Close(); err != nil {
		logger.Printf("close: %v", err)
		return 1
	}
	st := srv.Stats()
	logger.Printf("stopped (%d requests: %d ok, %d not-found, %d busy, %d timeout, %d errors; admission: %d admitted, %d shed, %d waited; %d in flight)",
		st.Requests, st.OK, st.NotFound, st.Busy, st.Timeout, st.Errors,
		st.Admission.Admitted, st.Admission.Rejected, st.Admission.Waits, srv.InFlight())
	return 0
}

// metricsMux builds the observability endpoint: Prometheus text at
// /metrics, the span journal at /debug/traces, the same registry as
// expvar JSON at /debug/vars, and the stdlib pprof handlers at
// /debug/pprof/.
func metricsMux(reg *face.MetricsRegistry, tracer *face.Tracer) *http.ServeMux {
	// Publish once per process: a second run of run() (tests) must not
	// hit expvar's duplicate-name panic.
	if expvar.Get("face") == nil {
		expvar.Publish("face", reg.Expvar())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tracesDoc(reg, tracer))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// tracesPayload is the /debug/traces document: the journal dump plus the
// histogram exemplars linking latency buckets back to trace IDs.
type tracesPayload struct {
	face.TraceDump
	Exemplars map[string][]obs.Exemplar `json:"exemplars,omitempty"`
}

// tracesDoc snapshots the journal and the exemplar-carrying histograms
// (the engine's total-latency histogram and the per-op server ones).  A
// nil tracer yields a well-formed empty document.
func tracesDoc(reg *face.MetricsRegistry, tracer *face.Tracer) tracesPayload {
	doc := tracesPayload{TraceDump: tracer.Dump(), Exemplars: map[string][]obs.Exemplar{}}
	names := []string{"face_tx_total_seconds"}
	for op := byte(wire.OpPing); op <= wire.OpAbort; op++ {
		names = append(names, `face_server_op_seconds{op="`+strings.ToLower(wire.OpName(op))+`"}`)
	}
	for _, name := range names {
		if ex := reg.Histogram(name).Snapshot().ExemplarList(); len(ex) > 0 {
			doc.Exemplars[name] = ex
		}
	}
	return doc
}

// dumpFlightRecorder logs the whole journal as one JSON line — the
// anomaly post-mortem a crashing or misbehaving deployment leaves behind.
func dumpFlightRecorder(logger *log.Logger, why string, reg *face.MetricsRegistry, tracer *face.Tracer) {
	data, err := json.Marshal(tracesDoc(reg, tracer))
	if err != nil {
		logger.Printf("flight recorder (%s): marshal: %v", why, err)
		return
	}
	logger.Printf("flight recorder (%s): %s", why, data)
}

// statsLoop logs a one-line digest every interval: request deltas plus
// the server-side SET p99 from the shared registry.
func statsLoop(logger *log.Logger, srv *server.Server, reg *face.MetricsRegistry, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	var last server.Stats
	setHist := reg.Histogram(`face_server_op_seconds{op="set"}`)
	getHist := reg.Histogram(`face_server_op_seconds{op="get"}`)
	lastSet, lastGet := setHist.Snapshot(), getHist.Snapshot()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		st := srv.Stats()
		set := setHist.Snapshot()
		get := getHist.Snapshot()
		setW, getW := set.Sub(lastSet), get.Sub(lastGet)
		logger.Printf("stats: %d req (%d ok, %d busy, %d timeout) | set p50=%v p99=%v | get p50=%v p99=%v | inflight=%d",
			st.Requests-last.Requests, st.OK-last.OK, st.Busy-last.Busy, st.Timeout-last.Timeout,
			setW.Quantile(0.50), setW.Quantile(0.99),
			getW.Quantile(0.50), getW.Quantile(0.99),
			srv.InFlight())
		last, lastSet, lastGet = st, set, get
	}
}
