// Command benchmark measures the engine end to end and layer by layer on
// four named workloads; README.md in this directory describes them, the
// metrics and how to run, trace, repeat and compare.
//
// With -workload it makes one run of one workload in one pass and prints
// the result as one JSON object on the last line of standard output, which
// is the form BENCHMARK.json's command is driven in.  Without it, it runs
// every workload in both passes, prints every metric by name with its unit
// and writes a result file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload and print one JSON result line (default: all workloads, both passes)")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 0, "seconds one run measures (default: run_seconds of "+specFile+")")
		trace    = fs.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		repeat   = fs.Int("repeat", 1, "without -workload: how many sets of runs to make")
		out      = fs.String("out", "", "without -workload: result file (default <tmp>/results.json)")
		traceOut = fs.String("trace-out", "", "where the traced pass writes its spans (default <tmp>/trace.json)")
		tmp      = fs.String("tmp", ".bench_build", "directory for database files and outputs, on the filesystem to be measured")
		cmp      = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric is worse")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		worse, err := compare(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(*tmp, "trace.json")
	}
	b := &bench{spec: sp, seed: *seed, seconds: *seconds, tmp: *tmp, traceOut: *traceOut, traces: map[string]*tracer{}}

	if *workload != "" {
		if workloads[*workload] == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		res, err := b.pass(*workload, *trace != 0)
		if err == nil {
			err = b.writeTraces()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}

	if *out == "" {
		*out = filepath.Join(*tmp, "results.json")
	}
	file := newResultFile(newMeta(*seed, *seconds, *tmp))
	for set := 0; set < *repeat; set++ {
		for i := range sp.Workloads {
			// Each set starts one workload later, so no workload always
			// runs in the same neighbour's wake.
			name := sp.Workloads[(i+set)%len(sp.Workloads)].Name
			for _, traced := range []bool{false, true} {
				res, err := b.pass(name, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
					return 1
				}
				file.add(name, res)
			}
		}
	}
	file.print(os.Stdout, sp)
	if err := b.writeTraces(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := file.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nresults: %s\nspans:   %s\n", *out, *traceOut)
	for _, failed := range file.Failed {
		if failed > 0 {
			return 1
		}
	}
	return 0
}

// bench is one invocation's settings.
type bench struct {
	spec     *spec
	seed     int64
	seconds  float64
	tmp      string
	traceOut string
	// traces holds the spans of each workload's latest traced pass until
	// the invocation ends and they are written out.
	traces map[string]*tracer
}

// writeTraces writes the spans collected so far, if any pass was traced.
func (b *bench) writeTraces() error {
	if len(b.traces) == 0 {
		return nil
	}
	if err := writeTraces(b.traceOut, b.traces); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// pass makes one run of one workload: untraced, it builds sz.reps fresh
// databases and reports the median of every end-to-end metric;
// traced, it runs one repetition bare and one with every device wrapped and
// every request recorded, then the layer drives, and reports the per-layer
// metrics.
func (b *bench) pass(name string, traced bool) (passResult, error) {
	resetPeakRSS()
	fn, ck := workloads[name], &checks{}
	cfg := repConfig{seed: b.seed, seconds: b.seconds / float64(sz.reps), tmp: b.tmp}
	var (
		got  map[string]float64
		list []metricSpec
		err  error
	)
	if traced {
		got, err = b.tracedPass(name, fn, cfg, ck)
		list = b.spec.PerLayer
	} else {
		got, err = untracedPass(fn, cfg, ck)
		list = b.spec.EndToEnd
	}
	if err != nil {
		return passResult{}, fmt.Errorf("%s: %w", name, err)
	}
	res := passResult{Attempted: ck.attempted.Load(), Failed: ck.failed.Load()}
	res.Correct = res.Failed == 0
	got["fail_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	if res.Metrics, err = pick(list, got, !traced); err != nil {
		return passResult{}, fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(os.Stderr, "%s trace=%v seed=%d: %d operations attempted, %d failed\n", name, traced, b.seed, res.Attempted, res.Failed)
	ck.report()
	return res, nil
}

func untracedPass(fn workloadFunc, cfg repConfig, ck *checks) (map[string]float64, error) {
	reps := make([]repResult, sz.reps)
	for i := range reps {
		cfg.last = i == sz.reps-1
		var err error
		if reps[i], err = fn(cfg, ck); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i+1, err)
		}
	}
	checkRepeatable(reps, ck)
	// Counts and set-up time: the median over the repetitions.
	got := make(map[string]float64)
	for name := range reps[0].e2e {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.e2e[name]
		}
		_, got[name], _ = quartiles(vals)
		fmt.Fprintf(os.Stderr, "  %-20s %.5g\n", name, vals)
	}
	// Timings and rates of the measured windows: the good-side quartile
	// over the slices of all repetitions.
	var rate, lat []sliceStat
	for _, r := range reps {
		rate, lat = append(rate, r.rate...), append(lat, r.lat...)
	}
	got["ops_per_s"] = steady(rate, true, func(s sliceStat) float64 { return s.opsPerS })
	got["op_p50_ms"] = steady(lat, false, func(s sliceStat) float64 { return ms(s.p50) })
	got["op_p99_ms"] = steady(lat, false, func(s sliceStat) float64 { return ms(s.p99) })
	for _, s := range lat {
		fmt.Fprintf(os.Stderr, "  slice: p50 %8.4f ms  p99 %8.4f ms  %8.0f ops/s  stolen %v\n", ms(s.p50), ms(s.p99), s.opsPerS, s.stolen)
	}
	got["peak_rss_mb"] = peakRSSMB()
	return got, nil
}

// repeatTolerance is how far a fingerprint value may differ between
// repetitions of one seed, as a share of the value; anything not listed must
// repeat exactly.  Log volume and records scanned depend on the transaction
// stream alone and do.  What depends on cache contents repeats only
// roughly on this engine: buffer.Pool.FlushDirty walks a Go map, so every
// checkpoint (the one ending the load, the one before the tail) stages its
// dirty pages into the flash cache in a different order, and Group Second
// Chance pulls DRAM victims accordingly.  DRAM misses and the modelled
// throughput then differ by up to about 0.1 %; the modelled restart time,
// which hangs on where a few hundred pages happen to be at the crash,
// differs by up to 12 % and is left out of the fingerprint.
var repeatTolerance = map[string]float64{"buffer.misses": 0.005, "tpmc_sim": 0.005}

// checkRepeatable compares the repetitions' fingerprints.  A run that does
// not repeat is marked non-deterministic by failing an operation.
func checkRepeatable(reps []repResult, ck *checks) {
	for name, want := range reps[0].fingerprint {
		for i, r := range reps[1:] {
			got := r.fingerprint[name]
			tolerance := repeatTolerance[name] * want
			if math.Abs(got-want) > tolerance {
				ck.fail("non-deterministic: %s is %v in repetition 1 and %v in repetition %d", name, want, got, i+2)
			}
		}
	}
}

func (b *bench) tracedPass(name string, fn workloadFunc, cfg repConfig, ck *checks) (map[string]float64, error) {
	cfg.ladder = true
	bare, err := fn(cfg, ck)
	if err != nil {
		return nil, fmt.Errorf("untraced repetition: %w", err)
	}
	cfg.ladder, cfg.tr = false, newTracer()
	res, err := fn(cfg, ck)
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	checkRepeatable([]repResult{bare, res}, ck)
	got := res.layer
	if v, ok := bare.layer["client.max_rate_ok"]; ok {
		got["client.max_rate_ok"] = v
	}
	got["trace_overhead_pct"] = 100 * ratio(bare.e2e["ops_per_s"]-res.e2e["ops_per_s"], bare.e2e["ops_per_s"])
	deviceSpanMetrics(got, cfg.tr.spans)
	// The largest index probed by key: the namespace's on the served
	// workloads, the customers' on tpcc-miss.
	keys := sz.kvKeys
	if name == "tpcc-miss" {
		keys = sz.tpcc.Warehouses * sz.tpcc.DistrictsPerWarehouse * sz.tpcc.CustomersPerDistrict
	}
	if err := layerDrives(got, b.tmp, keys); err != nil {
		return nil, err
	}
	for layer, d := range selfTimes(cfg.tr.spans) {
		fmt.Fprintf(os.Stderr, "  self time %-8s %10.1f ms\n", layer, ms(d))
	}
	b.traces[name] = cfg.tr
	return got, nil
}
