// Command facebench regenerates the tables and figures of the FaCE paper's
// evaluation (Section 5) against the simulated device stack.
//
// Usage:
//
//	facebench [flags] <experiment>...
//
// Several experiments may be named; they run in argument order against one
// golden database image, and an unknown name fails before any work starts.
//
// Experiments:
//
//	table1    device price/performance characteristics
//	table3    flash cache hit ratio and write reduction vs cache size
//	table4    flash device utilization and I/O throughput vs cache size
//	fig4      transaction throughput vs cache size (MLC and SLC SSDs)
//	table5    equal-cost DRAM vs flash increments
//	fig5      throughput vs number of RAID-0 disks
//	table6    restart time after a crash vs checkpoint interval
//	fig6      post-restart throughput timeline
//	ablations design-choice ablations (sync policy, group size, segment
//	          size)
//	policies  list the cache policies
//	all       every experiment above except policies, in order
//
// With -terminals N the throughput experiments run from N concurrent
// terminal goroutines through the page-lock (2PL) transaction scheduler,
// retrying transactions that lose a deadlock; the default keeps the
// paper-faithful single-stream driver.  The buffer pool is one global LRU,
// as in the paper, so the tables do not depend on the machine's core
// count.
//
// With -dir PATH every configuration runs on persistent file-backed
// devices in a fresh subdirectory of PATH instead of the simulated
// in-memory devices: real pread/pwrite I/O, a real fsync on every commit
// force and checkpoint, and restart recovery replaying from real files.
// Wall-clock tpmC becomes the headline column; the simulated-time figures
// no longer model the run.  -wallclock adds the wall-clock columns without
// changing the backend, and -nofsync disables the durability barrier for
// faster sweeps:
//
//	facebench -quick -dir $(mktemp -d) table3 table6
//
// With -json the results are emitted as one machine-readable JSON document
// (schema bench.ReportSchema, currently "facebench/v12") instead of text
// tables, so a perf trajectory can be tracked across commits, e.g.:
//
//	facebench -quick -json ablations > BENCH_ablations.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/reprolab/face"
	"github.com/reprolab/face/internal/bench"
)

// allExperiments is what "all" runs, in order.
var allExperiments = []string{"table1", "table3", "table4", "fig4", "table5", "fig5", "table6", "fig6", "ablations"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("facebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		warehouses = fs.Int("warehouses", 0, "TPC-C warehouses (0 = default scale)")
		quick      = fs.Bool("quick", false, "use the small test scale instead of the default scale")
		warmup     = fs.Int("warmup", 0, "warm-up transactions per configuration (0 = default)")
		measure    = fs.Int("measure", 0, "measured transactions per configuration (0 = default)")
		verbose    = fs.Bool("v", false, "print one progress line per completed run")
		seed       = fs.Int64("seed", 0, "workload random seed (0 = default)")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
		terminals  = fs.Int("terminals", 0, "run throughput experiments from N concurrent terminals (0 = classic single-stream driver)")
		dir        = fs.String("dir", "", "run on persistent file-backed devices in subdirectories of this path (default: simulated in-memory devices)")
		wallclock  = fs.Bool("wallclock", false, "show wall-clock throughput columns even on the in-memory backend")
		nofsync    = fs.Bool("nofsync", false, "disable the fsync durability barrier of the file backend (-dir)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: facebench [flags] <table1|table3|table4|fig4|table5|fig5|table6|fig6|ablations|policies|all>...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	// Experiments run in argument order against one golden image; every
	// name is checked before any work starts.
	var experiments []string
	for _, arg := range fs.Args() {
		what := strings.ToLower(arg)
		switch {
		case what == "all":
			experiments = append(experiments, allExperiments...)
		case what == "policies" || what == "table3+4" || slices.Contains(allExperiments, what):
			experiments = append(experiments, what)
		default:
			fmt.Fprintf(stderr, "facebench: unknown experiment %q\n", arg)
			return 1
		}
	}

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	if *warehouses > 0 {
		opts.Warehouses = *warehouses
	}
	if *warmup > 0 {
		opts.WarmupTx = *warmup
	}
	if *measure > 0 {
		opts.MeasureTx = *measure
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *terminals > 0 {
		opts.Terminals = *terminals
	}
	if *dir != "" {
		opts.Dir = *dir
	}
	if *wallclock {
		opts.Wallclock = true
	}
	if *nofsync {
		opts.NoFsync = true
	}
	if *verbose {
		opts.Progress = stderr
	}

	// Table 1 and the policy listing need no database; with -json they
	// still use the same envelope as every other experiment.
	start := time.Now()
	var golden *bench.Golden
	if slices.ContainsFunc(experiments, func(e string) bool { return e != "table1" && e != "policies" }) {
		var err error
		if golden, err = bench.BuildGolden(opts); err != nil {
			fmt.Fprintf(stderr, "facebench: %v\n", err)
			return 1
		}
		if *verbose {
			fmt.Fprintf(stderr, "golden database built in %v\n", time.Since(start).Round(time.Millisecond))
		}
	}

	var report *bench.Report
	if *jsonOut && golden != nil {
		report = bench.NewReport(golden)
	} else if *jsonOut {
		report = bench.NewStaticReport(opts)
	}

	var sweep bench.SweepResult // Tables 3 and 4 print one cache sweep
	for _, exp := range experiments {
		if err := runExperiment(golden, exp, stdout, report, &sweep); err != nil {
			fmt.Fprintf(stderr, "facebench %s: %v\n", exp, err)
			return 1
		}
	}
	if report != nil {
		if err := report.Write(stdout); err != nil {
			fmt.Fprintf(stderr, "facebench: %v\n", err)
			return 1
		}
	}
	if *verbose {
		fmt.Fprintf(stderr, "total wall-clock time: %v\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// runExperiment executes one experiment.  With a non-nil report the raw
// result structs are recorded there; otherwise the text tables are printed.
// sweep holds the cache sweep once Table 3 or 4 has run it.
func runExperiment(g *bench.Golden, what string, out io.Writer, report *bench.Report, sweep *bench.SweepResult) error {
	record := func(name string, data any, text func() string) {
		if report != nil {
			report.Add(name, data)
			return
		}
		fmt.Fprintln(out, text())
	}
	switch what {
	case "table1":
		rows := bench.Table1DeviceCharacteristics()
		record("table1", rows, func() string { return bench.FormatTable1(rows) })
	case "policies":
		names := face.Policies()
		record("policies", names, func() string {
			return "Registered cache policies:\n  " + strings.Join(names, "\n  ")
		})
	case "table3", "table4", "table3+4":
		if sweep.Results == nil {
			var err error
			if *sweep, err = g.CacheSweep(nil, nil); err != nil {
				return err
			}
		}
		if what != "table4" {
			record("table3", *sweep, func() string { return bench.FormatTable3(*sweep) })
		}
		if what != "table3" {
			record("table4", *sweep, func() string { return bench.FormatTable4(*sweep) })
		}
	case "fig4":
		for _, ssd := range []string{"mlc", "slc"} {
			profile := g.Options().MLCProfile
			if ssd == "slc" {
				profile = g.Options().SLCProfile
			}
			fig, err := g.Figure4Throughput(profile)
			if err != nil {
				return err
			}
			record("fig4_"+ssd, fig, func() string { return bench.FormatFigure4(fig) })
		}
	case "table5":
		rows, err := g.Table5DRAMvsFlash(5)
		if err != nil {
			return err
		}
		record("table5", rows, func() string { return bench.FormatTable5(rows) })
	case "fig5":
		fig, err := g.Figure5DiskScaling(0)
		if err != nil {
			return err
		}
		record("fig5", fig, func() string { return bench.FormatFigure5(fig) })
	case "table6":
		rows, err := g.Table6RecoveryTime(0)
		if err != nil {
			return err
		}
		record("table6", rows, func() string { return bench.FormatTable6(rows) })
	case "fig6":
		fig, err := g.Figure6PostRestartThroughput(0)
		if err != nil {
			return err
		}
		record("fig6", fig, func() string { return bench.FormatFigure6(fig) })
	case "ablations":
		sync, err := g.AblationSyncPolicy(0)
		if err != nil {
			return err
		}
		record("ablation_sync_policy", sync, func() string {
			return bench.FormatResults("Ablation: write-back vs write-through (Section 3.2)", sync)
		})
		groups, err := g.AblationGroupSize(0, nil)
		if err != nil {
			return err
		}
		record("ablation_group_size", groups, func() string {
			return bench.FormatResults("Ablation: replacement group size (Section 3.3)", groups)
		})
		segs, err := g.AblationSegmentSize(0, nil)
		if err != nil {
			return err
		}
		record("ablation_segment_size", segs, func() string {
			return bench.FormatResults("Ablation: metadata segment size (Section 4.1)", segs)
		})
	default:
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}
