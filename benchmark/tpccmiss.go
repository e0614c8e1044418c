package main

import (
	"context"
	"fmt"
	"time"

	"github.com/reprolab/face"
	"github.com/reprolab/face/internal/device"
	intface "github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/tpcc"
)

// tpcc-miss sizes.  The database (sz.tpcc: W=2, about 2 800 pages) is far larger
// than the DRAM buffer and larger than the flash cache (12 % of it), which
// is the paper's own regime.  The metadata segment is set with the cache
// size: the shipped default (4 096 entries) exceeds a 336-frame cache, and
// with a segment larger than the cache restart loses frames (post-restart
// transactions then fail with "record not found").
const (
	tpccBufferPages  = 64
	tpccFlashFrames  = 336
	tpccSegEntries   = 256
	tpccLogBlocks    = 1 << 20
	tpccTxPerSecond  = 1800 // measured transactions per second of run time (about what the seed commits)
	tpccDataDisks    = 8
	tpccDataBlocks   = 1 << 16
	tpccDriverOffset = 7
)

type tpccDevices struct{ data, log, flash device.Dev }

func (d tpccDevices) open(recover bool) (*face.DB, error) {
	opts := []face.Option{
		face.WithDevices(d.data, d.log),
		face.WithFlashDevice(d.flash),
		face.WithPolicy(face.PolicyFaCEGSC),
		face.WithBufferPages(tpccBufferPages),
		face.WithFlashFrames(tpccFlashFrames),
		face.WithSegmentEntries(tpccSegEntries),
	}
	if recover {
		opts = append(opts, face.WithRecovery())
	}
	return face.Open(opts...)
}

// runTPCCMiss is one repetition of tpcc-miss: load, warm up, a measured
// window of single-terminal TPC-C with no checkpoint inside it, then one
// checkpoint, a fixed tail, a crash, a restart and a fixed number of
// transactions on the restarted engine.
func runTPCCMiss(cfg repConfig, ck *checks) (repResult, error) {
	res := newRepResult()
	ctx := context.Background()
	tr := cfg.tr

	endPhase := tr.beginPhase("setup")
	setupStart := time.Now()
	flashBlocks := intface.FlashDeviceBlocks(tpccFlashFrames, tpccSegEntries) + intface.FlashDeviceSlack
	devs := tpccDevices{
		data:  wrapTraced(face.NewDiskArray("data", tpccDataDisks, tpccDataBlocks), "device", tr),
		log:   wrapTraced(face.NewDisk("log", tpccLogBlocks), "device", tr),
		flash: wrapTraced(face.NewSSD("flash", flashBlocks), "device", tr),
	}
	db, err := devs.open(false)
	if err != nil {
		return res, err
	}
	tcfg := sz.tpcc
	tcfg.Seed = cfg.seed
	catalog, err := tpcc.Load(db, tcfg)
	if err != nil {
		db.Crash()
		return res, fmt.Errorf("loading TPC-C: %w", err)
	}
	driver := tpcc.NewDriver(db, catalog, cfg.seed+tpccDriverOffset)
	// One RunTerminals call per transaction, so each is timed from
	// outside; the driver's schedule stream continues across calls.
	one := func(name string) (time.Duration, error) {
		start := time.Now()
		var err error
		tr.request(name, "tpcc", time.Time{}, true, func() { err = driver.RunTerminals(ctx, 1, 1) })
		return time.Since(start), err
	}
	for i := 0; i < sz.tpccWarmup; i++ {
		if _, err := one("warmup-tx"); err != nil {
			db.Crash()
			return res, fmt.Errorf("warm-up: %w", err)
		}
	}
	res.e2e["setup_s"] = time.Since(setupStart).Seconds()
	endPhase()

	// Measured window.
	endPhase = tr.beginPhase("measure")
	n := int(float64(tpccTxPerSecond) * cfg.seconds)
	lat := make([]sample, 0, n)
	counts0 := driver.Counts()
	win := openWindow(db)
	for i := 0; i < n; i++ {
		d, err := one("tx")
		if err != nil {
			ck.fail("measured transaction %d: %v", i, err)
			continue
		}
		ck.ok(1)
		lat = append(lat, sample{at: time.Now(), lat: d})
	}
	win.close(db)
	endPhase()
	counts1 := driver.Counts()
	done := (counts1.Total() - counts0.Total()) + (counts1.RolledBack - counts0.RolledBack)
	if done != int64(n) {
		ck.fail("%d scheduled slots ended in %d outcomes", n, done)
	}
	if got, want := win.after.Committed-win.before.Committed, counts1.Total()-counts0.Total(); got != want {
		ck.fail("engine committed %d, driver counted %d", got, want)
	}

	res.rate = sliceWindow(lat, win.start, win.wall, win.steal)
	res.lat = res.rate
	sum := summarize(latencies(lat))
	res.e2e["ops_per_s"] = float64(len(lat)) / win.wall.Seconds()
	res.e2e["op_p50_ms"] = ms(sum.p50)
	res.e2e["op_p99_ms"] = ms(sum.p99)
	simElapsed := win.after.Elapsed - win.before.Elapsed
	res.e2e["tpmc_sim"] = float64(counts1.NewOrders()-counts0.NewOrders()) / simElapsed.Minutes()
	res.e2e["written_kb_per_op"] = float64(win.blocksWritten()) * device.BlockSize / 1024 / float64(n)
	var tablePages int
	for _, p := range catalog.Tables() {
		tablePages += p
	}
	res.e2e["space_amp"] = float64(db.NumPages()) / float64(tablePages)
	win.layerCounts(res.layer, int64(n))
	res.layer["tpcc.deadlock_retries"] = float64(counts1.DeadlockRetries - counts0.DeadlockRetries)
	res.layer["tpcc.rolled_back"] = float64(counts1.RolledBack - counts0.RolledBack)
	res.layer["client.op_samples"] = float64(sum.n)

	// Checkpoint (timed outside the window), tail, crash.
	endPhase = tr.beginPhase("tail")
	ckStart := time.Now()
	if err := db.Checkpoint(); err != nil {
		db.Crash()
		return res, fmt.Errorf("checkpoint: %w", err)
	}
	res.layer["engine.checkpoint_ms"] = ms(time.Since(ckStart))
	for i := 0; i < sz.tpccTail; i++ {
		if _, err := one("tail-tx"); err != nil {
			ck.fail("tail transaction %d: %v", i, err)
		} else {
			ck.ok(1)
		}
	}
	endPhase()

	endPhase = tr.beginPhase("restart")
	db.Crash()
	restartStart := time.Now()
	db, err = devs.open(true)
	if err != nil {
		return res, fmt.Errorf("restart: %w", err)
	}
	defer db.Crash() // nothing below needs a clean close; devices are in memory
	driver = tpcc.NewDriver(db, catalog, cfg.seed+tpccDriverOffset+1)
	rep := db.RecoveryReport()
	if rep == nil {
		return res, fmt.Errorf("restart produced no recovery report")
	}
	// Lost or doubled rows surface here as "record not found" or
	// "duplicate key".
	for i := 0; i < sz.tpccPostCrash; i++ {
		if _, err := one("post-restart-tx"); err != nil {
			ck.fail("post-restart transaction %d: %v", i, err)
		} else {
			ck.ok(1)
		}
		if i == 0 {
			// Host time of recovering in-memory devices; the restart a
			// user of the paper's hardware waits for is the modelled one.
			res.layer["recovery.open_ms"] = ms(time.Since(restartStart))
		}
	}
	endPhase()
	res.e2e["restart_sim_s"] = rep.TotalTime.Seconds()
	recoveryCounts(res.layer, rep)

	res.fingerprint["buffer.misses"] = res.layer["buffer.misses"]
	res.fingerprint["wal.bytes"] = res.layer["wal.bytes"]
	res.fingerprint["recovery.records_scanned"] = res.layer["recovery.records_scanned"]
	res.fingerprint["tpmc_sim"] = res.e2e["tpmc_sim"]
	return res, nil
}
