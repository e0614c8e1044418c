// tpccbench: load a small TPC-C database and compare the transaction
// throughput of the LC baseline against FaCE+GSC at the same flash cache
// size — the core comparison of the paper's Figure 4.
//
// Run with:
//
//	go run ./examples/tpccbench
//
// With -terminals N every configuration runs N concurrent terminal
// goroutines issuing the mix through the page-lock (2PL) transaction
// scheduler (deadlock victims are retried), instead of the single-stream
// driver:
//
//	go run ./examples/tpccbench -terminals 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/reprolab/face"
	"github.com/reprolab/face/internal/bench"
)

func main() {
	terminals := flag.Int("terminals", 0, "concurrent terminals through the 2PL scheduler (0 = single-stream driver)")
	flag.Parse()

	opts := bench.QuickOptions()
	opts.Warehouses = 1
	opts.Progress = os.Stderr
	if *terminals >= 1 {
		opts.Terminals = *terminals
		fmt.Printf("Scheduler: page-level 2PL, %d terminal(s) (deadlock victims retried)\n", *terminals)
	}

	golden, err := bench.BuildGolden(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-C database: %d warehouses, %d pages (%.1f MB)\n\n",
		opts.Warehouses, golden.DBPages(), float64(golden.DBPages())*4096/1e6)

	var results []bench.Result
	// Policies are selected by name; the face.Policy* constants name
	// them.
	for _, spec := range []bench.RunSpec{
		{Policy: face.PolicyNone, Label: "HDD-only"},
		{Policy: face.PolicyLC, CacheFraction: 0.15, Label: "LC (LRU write-back)"},
		{Policy: face.PolicyFaCE, CacheFraction: 0.15, Label: "FaCE (mvFIFO)"},
		{Policy: face.PolicyFaCEGSC, CacheFraction: 0.15, Label: "FaCE+GSC"},
		{Policy: face.PolicyNone, DataOnFlash: true, Label: "SSD-only"},
	} {
		res, err := golden.Run(spec)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
	}

	fmt.Println(bench.FormatResults("TPC-C throughput, flash cache = 15% of the database", results))
	fmt.Println("Expected shape (paper, Section 5.3): FaCE+GSC > FaCE > LC, every flash")
	fmt.Println("cache beats HDD-only, and FaCE+GSC with a small cache beats SSD-only.")
	if *terminals >= 1 {
		for _, r := range results {
			fmt.Printf("%-20s lock waits=%d (%v) deadlock retries=%d group-commit fan-in=%.2f\n",
				r.Label, r.Locks.Waits, r.Locks.WaitTime, r.DeadlockRetries, r.Wal.CoalesceFactor())
		}
	}
}
