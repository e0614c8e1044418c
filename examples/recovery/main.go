// recovery: crash a running TPC-C system in the middle of a checkpoint
// interval and measure how long the restart takes with and without the
// FaCE flash cache — the paper's Table 6 experiment in miniature.
//
// Run with:
//
//	go run ./examples/recovery
//	go run ./examples/recovery -dir $(mktemp -d)
//
// With -dir the experiment runs on persistent file-backed devices: the
// crash really closes the device files, the restart reopens them from
// the directory, and the reported wall-clock restart time is the
// downtime a served deployment (cmd/faced) would observe.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/reprolab/face"
	"github.com/reprolab/face/internal/bench"
)

func main() {
	dir := flag.String("dir", "", "run on file-backed devices in this directory (default: simulated in-memory devices)")
	nofsync := flag.Bool("nofsync", false, "with -dir, skip the fsync durability barrier")
	flag.Parse()

	opts := bench.QuickOptions()
	opts.Progress = os.Stderr
	opts.Dir = *dir
	opts.NoFsync = *nofsync

	golden, err := bench.BuildGolden(opts)
	if err != nil {
		log.Fatal(err)
	}

	interval := 500 * time.Millisecond
	fmt.Printf("Crashing the system halfway through a %v checkpoint interval...\n\n", interval)

	faceRun, err := golden.RunRecovery(bench.RunSpec{
		Policy:          face.PolicyFaCEGSC,
		CacheFraction:   opts.RecoveryCacheFraction,
		BufferPages:     opts.RecoveryBufferPages,
		CheckpointEvery: interval,
		Label:           "FaCE+GSC",
	}, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	hdd, err := golden.RunRecovery(bench.RunSpec{
		Policy:          face.PolicyNone,
		BufferPages:     opts.RecoveryBufferPages,
		CheckpointEvery: interval,
		Label:           "HDD-only",
	}, 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	report := func(r bench.RecoveryRun) {
		fmt.Printf("%-10s restart %-10v wall %-10v (metadata restore %v, %d pages from flash, %d from disk, %d redo on %d pages, %d pages skipped)\n",
			r.Label, r.RestartTime.Round(time.Millisecond), r.RestartWall.Round(time.Millisecond),
			r.MetadataRestoreTime.Round(time.Microsecond),
			r.FlashReads, r.DiskReads, r.RedoApplied, r.PagesRedone, r.PagesSkipped)
	}
	report(faceRun)
	report(hdd)
	if faceRun.RestartTime > 0 {
		fmt.Printf("\nFaCE restarts %.1fx faster: both skip the pages the log notes as current on\n",
			float64(hdd.RestartTime)/float64(faceRun.RestartTime))
		fmt.Println("disk, FaCE also those whose flash copy is current, and it reads most others")
		fmt.Println("from the persistent flash cache instead of random disk reads (paper §5.5).")
	}
	if *dir != "" {
		fmt.Println("\nWall-clock restart measured over a real close-and-reopen of the device")
		fmt.Printf("files in %s — the kill-and-restart path cmd/faced takes.\n", *dir)
	}
}
