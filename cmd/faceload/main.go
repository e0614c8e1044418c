// Command faceload drives a faced server with an open-loop workload and
// reports served-traffic results in the facebench JSON schema
// (bench.ReportSchema).
//
// Usage:
//
//	faceload -addr host:port [flags]
//	faceload -addr host:port -preload 10000        # load keys 0..9999
//	faceload -addr host:port -verify 10000         # check keys 0..9999
//
// The generator is open-loop: requests arrive on a fixed schedule at
// -qps regardless of how fast the server answers, the way independent
// clients would.  Latency is measured from each request's scheduled
// arrival, so server stalls surface as latency instead of being hidden
// by coordinated omission; arrivals that find every worker busy are
// counted as dropped.  BUSY responses (admission control shedding load)
// are counted, not retried, so overload stays visible in the report.
//
// Keys are drawn from a Zipf distribution over -keys keys with exponent
// -skew (use 0 for uniform); -reads sets the GET fraction, the rest are
// SETs of -value-byte payloads.
//
// With -metrics pointing at faced's -metrics-addr, the generator scrapes
// the server's /metrics endpoint when the run ends and folds the
// server-side GET/SET latency quantiles, the admission shed count, and
// the pinned anomaly-trace count into the report, making the
// client-vs-server latency gap (queueing) visible alongside the
// open-loop client percentiles.
//
// By default every request carries a client-minted trace ID (-trace),
// so anomaly traces pinned in the server's span journal — retrievable
// from faced's /debug/traces endpoint — correlate with this run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/reprolab/face/internal/bench"
	"github.com/reprolab/face/internal/server/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type counters struct {
	mu        sync.Mutex
	succeeded int64
	notFound  int64
	busy      int64
	timeouts  int64
	errors    int64
	latencies []time.Duration
	lastErr   error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faceload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:4320", "faced address")
		ns       = fs.String("ns", "bench", "namespace to drive")
		conns    = fs.Int("conns", 8, "client TCP connections")
		workers  = fs.Int("workers", 64, "maximum in-flight requests")
		qps      = fs.Float64("qps", 5000, "open-loop offered arrival rate (requests/second)")
		duration = fs.Duration("duration", 10*time.Second, "measurement duration")
		reads    = fs.Float64("reads", 0.8, "fraction of requests that are GETs")
		keys     = fs.Uint64("keys", 100000, "key-space size")
		value    = fs.Int("value", 128, "SET value size in bytes")
		skew     = fs.Float64("skew", 1.1, "Zipf exponent over the key space (0 = uniform, else > 1)")
		seed     = fs.Int64("seed", 1, "workload random seed")
		timeout  = fs.Duration("timeout", 2*time.Second, "per-request deadline sent to the server")
		preload  = fs.Uint64("preload", 0, "load keys 0..N-1 sequentially and exit")
		verify   = fs.Uint64("verify", 0, "verify keys 0..N-1 exist and exit")
		jsonOut  = fs.Bool("json", false, "emit a facebench JSON report instead of text")
		label    = fs.String("label", "", "label for the result (default: derived from the workload)")
		metrics  = fs.String("metrics", "", "faced /metrics URL to scrape at run end (folds server-side p99 + shed into the report)")
		traced   = fs.Bool("trace", true, "attach a trace ID to every request so server-side anomaly traces correlate with this run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	c, err := client.Dial(*addr, client.Options{Conns: *conns, RequestTimeout: *timeout, Trace: *traced})
	if err != nil {
		fmt.Fprintf(stderr, "faceload: %v\n", err)
		return 1
	}
	defer c.Close()
	if err := c.Create(*ns); err != nil {
		fmt.Fprintf(stderr, "faceload: create %s: %v\n", *ns, err)
		return 1
	}

	if *preload > 0 {
		if err := doPreload(c, *ns, *preload, *value); err != nil {
			fmt.Fprintf(stderr, "faceload: preload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "preloaded %d keys into %s\n", *preload, *ns)
		return 0
	}
	if *verify > 0 {
		if err := doVerify(c, *ns, *verify); err != nil {
			fmt.Fprintf(stderr, "faceload: verify: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "verified %d keys in %s\n", *verify, *ns)
		return 0
	}

	res := drive(c, driveConfig{
		ns: *ns, conns: *conns, workers: *workers, qps: *qps,
		duration: *duration, reads: *reads, keys: *keys,
		value: *value, skew: *skew, seed: *seed,
	}, stderr)
	if *label != "" {
		res.Label = *label
	}
	if *metrics != "" {
		if err := scrapeMetrics(*metrics, res); err != nil {
			fmt.Fprintf(stderr, "faceload: metrics scrape: %v\n", err)
		}
	}

	if *jsonOut {
		rep := &bench.Report{
			Schema:      bench.ReportSchema,
			Experiments: map[string]any{"serve": res},
		}
		if err := rep.Write(stdout); err != nil {
			fmt.Fprintf(stderr, "faceload: %v\n", err)
			return 1
		}
		return 0
	}
	bench.FormatServe(stdout, res)
	return 0
}

// scrapeMetrics fetches the server's Prometheus /metrics endpoint and
// folds the server-side latency quantiles and shed count into the serve
// result, so the client-vs-server latency gap (queueing) is visible in
// one report.  A bare host:port is accepted and completed to a URL.
func scrapeMetrics(url string, res *bench.ServeResult) error {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url, "/metrics") {
		url = strings.TrimRight(url, "/") + "/metrics"
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	res.FillServerMetrics(string(body))
	return nil
}

func doPreload(c *client.Client, ns string, n uint64, size int) error {
	val := make([]byte, size)
	for i := range val {
		val[i] = byte(i)
	}
	for k := uint64(0); k < n; k++ {
		// Preload is correctness setup, so BUSY is retried here.
		err := client.RetryBusy(context.Background(), func() error { return c.Set(ns, k, val) })
		if err != nil {
			return fmt.Errorf("key %d: %w", k, err)
		}
	}
	return nil
}

func doVerify(c *client.Client, ns string, n uint64) error {
	for k := uint64(0); k < n; k++ {
		_, found, err := c.Get(ns, k)
		if err != nil {
			return fmt.Errorf("key %d: %w", k, err)
		}
		if !found {
			return fmt.Errorf("key %d: missing", k)
		}
	}
	return nil
}

type driveConfig struct {
	ns       string
	conns    int
	workers  int
	qps      float64
	duration time.Duration
	reads    float64
	keys     uint64
	value    int
	skew     float64
	seed     int64
}

// job is one scheduled arrival.
type job struct {
	at time.Time
}

func drive(c *client.Client, cfg driveConfig, stderr io.Writer) *bench.ServeResult {
	if cfg.qps <= 0 {
		cfg.qps = 1
	}
	if cfg.workers <= 0 {
		cfg.workers = 1
	}
	val := make([]byte, cfg.value)
	for i := range val {
		val[i] = byte(i * 7)
	}

	var (
		cnt     counters
		dropped int64
		issued  int64
		wg      sync.WaitGroup
	)
	jobs := make(chan job) // unbuffered: a full pool drops, open-loop style

	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			var zipf *rand.Zipf
			if cfg.skew > 1 {
				zipf = rand.NewZipf(rng, cfg.skew, 1, cfg.keys-1)
			}
			for j := range jobs {
				var key uint64
				if zipf != nil {
					key = zipf.Uint64()
				} else {
					key = rng.Uint64() % cfg.keys
				}
				var err error
				var found bool
				if rng.Float64() < cfg.reads {
					_, found, err = c.Get(cfg.ns, key)
				} else {
					err = c.Set(cfg.ns, key, val)
					found = true
				}
				// Open-loop latency: from the scheduled arrival, not from
				// the moment a worker got around to sending.
				d := time.Since(j.at)
				cnt.mu.Lock()
				switch {
				case err == nil && found:
					cnt.succeeded++
					cnt.latencies = append(cnt.latencies, d)
				case err == nil:
					cnt.notFound++
					cnt.latencies = append(cnt.latencies, d)
				case errors.Is(err, client.ErrBusy):
					cnt.busy++
				case errors.Is(err, client.ErrTimeout):
					cnt.timeouts++
				default:
					cnt.errors++
					cnt.lastErr = err
				}
				cnt.mu.Unlock()
			}
		}(w)
	}

	interval := time.Duration(float64(time.Second) / cfg.qps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	start := time.Now()
	end := start.Add(cfg.duration)
	next := start
	for next.Before(end) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case jobs <- job{at: next}:
			issued++
		default:
			dropped++ // every worker busy: the arrival is abandoned, not delayed
		}
		next = next.Add(interval)
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	if cnt.lastErr != nil {
		fmt.Fprintf(stderr, "faceload: last error: %v\n", cnt.lastErr)
	}

	res := &bench.ServeResult{
		Label:        fmt.Sprintf("%s @ %.0f qps", cfg.ns, cfg.qps),
		Conns:        cfg.conns,
		Workers:      cfg.workers,
		OfferedQPS:   cfg.qps,
		Duration:     elapsed,
		Requests:     issued,
		Succeeded:    cnt.succeeded,
		NotFound:     cnt.notFound,
		Busy:         cnt.busy,
		Timeouts:     cnt.timeouts,
		Errors:       cnt.errors,
		Dropped:      dropped,
		ReadFraction: cfg.reads,
		ValueSize:    cfg.value,
		Keys:         cfg.keys,
		Skew:         cfg.skew,
	}
	res.AchievedQPS = float64(cnt.succeeded+cnt.notFound) / elapsed.Seconds()
	res.FillPercentiles(cnt.latencies)
	return res
}
