package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/device/filedev"
	"github.com/reprolab/face/internal/engine"
	"github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/metrics"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/tpcc"
)

// Golden is a freshly loaded, fully checkpointed TPC-C database image that
// experiment configurations clone from.
type Golden struct {
	opts    Options
	content [][]byte
	catalog *tpcc.Database
	dbPages int64
}

// BuildGolden loads the TPC-C database once at the option scale.
func BuildGolden(opts Options) (*Golden, error) {
	opts.normalize()
	cfg := tpcc.DefaultConfig(opts.Warehouses)
	cfg.Seed = opts.Seed

	// Generous capacity: the loader engine uses plain devices whose blocks
	// materialise lazily, so oversizing costs nothing.
	capacity := int64(opts.Warehouses)*6000 + 20000
	dataDev := device.New("golden-data", device.ProfileCheetah15K, capacity)
	logDev := device.New("golden-log", device.ProfileCheetah15K, 1<<18)

	eng, err := engine.Open(engine.Config{
		DataDev:     dataDev,
		LogDev:      logDev,
		BufferPages: 4096,
		Policy:      engine.PolicyNone,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: opening loader engine: %w", err)
	}
	catalog, err := tpcc.Load(eng, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: loading golden database: %w", err)
	}
	if err := eng.Close(); err != nil {
		return nil, fmt.Errorf("bench: closing loader engine: %w", err)
	}
	g := &Golden{
		opts:    opts,
		content: dataDev.SnapshotContent(),
		catalog: catalog,
		dbPages: eng.NumPages(),
	}
	g.progress("golden database loaded: %d warehouses, %d pages (%.1f MB)",
		opts.Warehouses, g.dbPages, float64(g.dbPages)*4096/1e6)
	return g, nil
}

// Options returns the options the golden image was built with.
func (g *Golden) Options() Options { return g.opts }

// DBPages returns the number of pages in the loaded database.
func (g *Golden) DBPages() int64 { return g.dbPages }

// cacheFrames is the flash cache size, in frames, of a cache fraction.
func (g *Golden) cacheFrames(fraction float64) int {
	return int(float64(g.dbPages) * fraction)
}

// holdsTwoGroups reports whether a flash cache of the given fraction holds
// two replacement groups of groupSize pages (0 = Options.GroupSize), the
// least a run accepts: the harness never resizes a cache behind its label.
func (g *Golden) holdsTwoGroups(fraction float64, groupSize int) bool {
	if groupSize <= 0 {
		groupSize = g.opts.GroupSize
	}
	return g.cacheFrames(fraction) >= 2*groupSize
}

// fittingFractions returns the cache fractions that hold two replacement
// groups of the default size, reporting the ones it drops.
func (g *Golden) fittingFractions(fractions []float64) []float64 {
	var out []float64
	for _, f := range fractions {
		if g.holdsTwoGroups(f, 0) {
			out = append(out, f)
		} else {
			g.progress("skipping a %.0f%% flash cache: %d frames hold fewer than two groups of %d", f*100, g.cacheFrames(f), g.opts.GroupSize)
		}
	}
	return out
}

func (g *Golden) progress(format string, args ...interface{}) {
	if g.opts.Progress != nil {
		fmt.Fprintf(g.opts.Progress, format+"\n", args...)
	}
}

// Device backends a configuration can run on.
const (
	// BackendMem is the simulated in-memory device stack with calibrated
	// latency profiles (the paper-faithful default).
	BackendMem = "mem"
	// BackendFile is the persistent file-backed device stack
	// (internal/device/filedev): real files, real fsync, wall-clock
	// latencies.
	BackendFile = "file"
)

// RunSpec describes one experiment configuration.
type RunSpec struct {
	// Label names the configuration in reports (defaults to the policy).
	Label string
	// Backend selects the device stack: BackendMem or BackendFile ("" =
	// BackendFile when Options.Dir is set, BackendMem otherwise).
	Backend string
	// Policy selects the cache scheme (PolicyNone for HDD-only/SSD-only).
	Policy engine.CachePolicy
	// CacheFraction sizes the flash cache as a fraction of the database.
	CacheFraction float64
	// FlashProfile is the flash cache device model (default MLCProfile).
	FlashProfile device.Profile
	// DiskCount is the RAID-0 size of the data volume (default
	// Options.DefaultDisks).
	DiskCount int
	// DataOnFlash stores the whole database on a flash SSD (the paper's
	// SSD-only configuration); no flash cache is used.
	DataOnFlash bool
	// BufferPages overrides the DRAM buffer size (0 = derive from
	// Options.BufferFraction).
	BufferPages int
	// CheckpointEvery enables periodic checkpoints.
	CheckpointEvery time.Duration
	// GroupSize overrides Options.GroupSize (0 = default).
	GroupSize int
	// SegmentEntries overrides Options.SegmentEntries (0 = default).
	SegmentEntries int
	// Terminals issues the workload from this many concurrent terminal
	// goroutines via Driver.RunTerminals (deadlock victims retried).
	// Zero selects the classic single-stream driver; 1 runs the same
	// scheduled workload from one terminal, which is the fair baseline
	// for multi-terminal comparisons.
	Terminals int
	// WarmupTx/MeasureTx override the option values when non-zero.
	WarmupTx  int
	MeasureTx int
	// Seed offsets the workload random stream.
	Seed int64
}

func (s RunSpec) label() string {
	if s.Label != "" {
		return s.Label
	}
	switch {
	case s.DataOnFlash:
		return "SSD-only"
	case !s.Policy.UsesFlash():
		return "HDD-only"
	default:
		return s.Policy.String()
	}
}

// Result is the measurement of one configuration over its measurement
// window.
type Result struct {
	Label string
	// Backend echoes the device stack the configuration ran on
	// (BackendMem or BackendFile).
	Backend       string
	Policy        engine.CachePolicy
	CacheFraction float64
	CacheFrames   int
	BufferPages   int
	DiskCount     int

	Elapsed     time.Duration
	NewOrders   int64
	TotalTx     int64
	TpmC        float64
	TotalTpm    float64
	DRAMHitRate float64

	FlashHitRate     float64
	WriteReduction   float64
	FlashUtilization float64
	FlashIOPS        float64
	DataUtilization  float64

	FlashReads  int64
	FlashWrites int64
	DiskReads   int64
	DiskWrites  int64
	Checkpoints int64

	// Terminals echoes the scheduler configuration; Locks, Wal (its
	// commit-force coalescing among the rest) and DeadlockRetries report
	// its activity over the measurement window.
	Terminals       int
	DeadlockRetries int64
	Locks           metrics.LockStats
	Wal             metrics.WalStats

	// WallClock is the host wall-clock time of the measurement phase.
	WallClock time.Duration
	// TpmCWall is the NewOrder throughput per wall-clock minute.  On the
	// file backend it is the headline figure: the devices have real
	// latency and real fsync, so simulated time no longer models the run.
	TpmCWall float64
	// WallclockMode marks a result whose text reports should lead with
	// the wall-clock columns (file backend, or Options.Wallclock).  The
	// name deliberately avoids a case-only collision with the WallClock
	// duration in the JSON schema.
	WallclockMode bool

	// TxLatency is the wall-clock latency summary over all committed
	// transactions and KindLatencies the same per TPC-C transaction kind.
	// Host wall-clock time: on the simulated backend they price the host,
	// not the modeled hardware.
	TxLatency     obs.Summary
	KindLatencies map[string]obs.Summary
}

// runEnv is a fully constructed experiment instance.
type runEnv struct {
	spec     RunSpec
	backend  string
	eng      *engine.DB
	driver   *tpcc.Driver
	dataDev  device.Dev
	logDev   device.Dev
	flashDev device.Dev
	// files is the file-backed device set under BackendFile (nil on
	// BackendMem); the harness owns it and closes it when the run ends.
	// fileCfg remembers how it was opened so a crash/restart experiment
	// can really close and reopen the same directory.
	files    *filedev.Set
	fileCfg  filedev.SetConfig
	frames   int
	bufPages int
}

// reopenFiles closes the file-backed device set and reopens it from the
// same directory — the true restart path, with fresh file descriptors
// and whatever the OS actually persisted.  No-op on the in-memory
// backend.
func (env *runEnv) reopenFiles() error {
	if env.files == nil {
		return nil
	}
	dir := env.files.Dir
	if err := env.files.Close(); err != nil {
		return fmt.Errorf("bench: closing %s for restart: %w", dir, err)
	}
	env.files = nil
	set, err := filedev.OpenSet(dir, env.fileCfg)
	if err != nil {
		return fmt.Errorf("bench: reopening %s: %w", dir, err)
	}
	if !set.Existed {
		set.Close()
		return fmt.Errorf("bench: reopening %s found no initialised data file", dir)
	}
	env.files = set
	env.dataDev = set.Data
	env.logDev = set.Log
	if set.Flash != nil {
		env.flashDev = set.Flash
	}
	return nil
}

// cleanup releases backend resources once the run (including any
// crash/restart cycle reusing the devices) is over.  The per-run clone
// directory is removed with its device files: it exists only to give the
// configuration a private copy of the golden image.
func (env *runEnv) cleanup() {
	if env.files != nil {
		dir := env.files.Dir
		env.files.Close()
		env.files = nil
		os.RemoveAll(dir)
	}
}

// build constructs devices, engine and driver for a spec, cloning the
// golden image.
func (g *Golden) build(spec RunSpec, recoverMode bool, reuse *runEnv) (*runEnv, error) {
	opts := g.opts
	if spec.Backend == "" {
		if opts.Dir != "" {
			spec.Backend = BackendFile
		} else {
			spec.Backend = BackendMem
		}
	}
	if spec.DiskCount <= 0 {
		spec.DiskCount = opts.DefaultDisks
	}
	if spec.FlashProfile.Name == "" {
		spec.FlashProfile = opts.MLCProfile
	}
	groupSize := spec.GroupSize
	if groupSize <= 0 {
		groupSize = opts.GroupSize
	}
	segEntries := spec.SegmentEntries
	if segEntries <= 0 {
		segEntries = opts.SegmentEntries
	}

	var env *runEnv
	if reuse != nil {
		// Reuse devices across a crash: contents must survive.  On the
		// file backend the same open files are reattached, which is
		// exactly the reopen-after-crash path recovery replays against.
		env = reuse
	} else {
		env = &runEnv{spec: spec, backend: spec.Backend}

		env.bufPages = spec.BufferPages
		if env.bufPages <= 0 {
			env.bufPages = int(float64(g.dbPages) * opts.BufferFraction)
		}
		if env.bufPages < opts.MinBufferPages {
			env.bufPages = opts.MinBufferPages
		}
		if spec.Policy.UsesFlash() {
			env.frames = g.cacheFrames(spec.CacheFraction)
			if !g.holdsTwoGroups(spec.CacheFraction, groupSize) {
				return nil, fmt.Errorf("bench: %s: a %d-frame flash cache holds fewer than two replacement groups of %d pages", spec.label(), env.frames, groupSize)
			}
		}
		// The flash device holds the layout (superblock + metadata
		// segments + frames) plus the shared headroom.
		flashBlocks := face.FlashDeviceBlocks(env.frames, segEntries) + face.FlashDeviceSlack

		switch spec.Backend {
		case BackendFile:
			if opts.Dir == "" {
				return nil, fmt.Errorf("bench: %s requests the file backend but Options.Dir is empty", spec.label())
			}
			if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
				return nil, fmt.Errorf("bench: creating %s: %w", opts.Dir, err)
			}
			dir, err := os.MkdirTemp(opts.Dir, "face-run-*")
			if err != nil {
				return nil, fmt.Errorf("bench: creating run directory: %w", err)
			}
			// The worker pool stands in for the device class: one stream
			// for the single-SSD (DataOnFlash) configuration, one per
			// member disk for the striped-array configurations.
			workers := spec.DiskCount
			if spec.DataOnFlash {
				workers = 1
			}
			cfg := filedev.SetConfig{
				DataBlocks: int64(len(g.content)) + 8192,
				LogBlocks:  1 << 18,
				Workers:    workers,
				NoFsync:    opts.NoFsync,
			}
			if spec.Policy.UsesFlash() {
				cfg.FlashBlocks = flashBlocks
			}
			set, err := filedev.OpenSet(dir, cfg)
			if err != nil {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("bench: opening file devices for %s: %w", spec.label(), err)
			}
			if err := set.Data.LoadLogical(g.content); err != nil {
				set.Close()
				os.RemoveAll(dir)
				return nil, fmt.Errorf("bench: loading golden image into %s: %w", dir, err)
			}
			env.files = set
			env.fileCfg = cfg
			env.dataDev = set.Data
			env.logDev = set.Log
			if set.Flash != nil {
				env.flashDev = set.Flash
			}
		default:
			// Data device: RAID-0 of disks, or a single SSD for SSD-only.
			if spec.DataOnFlash {
				d := device.New("data-ssd", spec.FlashProfile, int64(len(g.content))+8192)
				d.LoadLogical(g.content)
				env.dataDev = d
			} else {
				a := device.NewArray("data", device.ProfileCheetah15K, spec.DiskCount, int64(len(g.content))+8192)
				a.LoadLogical(g.content)
				env.dataDev = a
			}
			env.logDev = device.New("log", device.ProfileCheetah15K, 1<<18)
			if spec.Policy.UsesFlash() {
				env.flashDev = device.New("flash", spec.FlashProfile, flashBlocks)
			}
		}
	}

	cfg := engine.Config{
		DataDev:         env.dataDev,
		LogDev:          env.logDev,
		FlashDev:        env.flashDev,
		BufferPages:     env.bufPages,
		Policy:          spec.Policy,
		FlashFrames:     env.frames,
		GroupSize:       groupSize,
		SegmentEntries:  segEntries,
		CheckpointEvery: spec.CheckpointEvery,
		Recover:         recoverMode,
	}
	if !spec.Policy.UsesFlash() {
		cfg.FlashDev = nil
		cfg.FlashFrames = 0
	}
	eng, err := engine.Open(cfg)
	if err != nil {
		// The caller never sees the env, so release its backend resources
		// here (no-op for in-memory devices, idempotent for a reused env
		// whose owner also cleans up).
		env.cleanup()
		return nil, fmt.Errorf("bench: opening %s: %w", spec.label(), err)
	}
	env.eng = eng
	env.driver = tpcc.NewDriver(eng, g.catalog.Clone(), opts.Seed+spec.Seed+7)
	return env, nil
}

// Run executes one configuration: clone, warm up, measure.  With
// spec.Terminals >= 1 (or the option-level Options.Terminals override) the
// workload is issued by concurrent terminal goroutines through the
// View/Update scheduler instead of the classic single-stream driver.
func (g *Golden) Run(spec RunSpec) (Result, error) {
	if g.opts.Terminals >= 1 && spec.Terminals == 0 {
		spec.Terminals = g.opts.Terminals
	}
	env, err := g.build(spec, false, nil)
	if err != nil {
		return Result{}, err
	}
	defer env.cleanup()
	warmup := spec.WarmupTx
	if warmup == 0 {
		warmup = g.opts.WarmupTx
	}
	measure := spec.MeasureTx
	if measure == 0 {
		measure = g.opts.MeasureTx
	}
	runPhase := func(n int) error {
		if spec.Terminals >= 1 {
			return env.driver.RunTerminals(context.Background(), spec.Terminals, n)
		}
		return env.driver.RunMany(n)
	}
	if err := runPhase(warmup); err != nil {
		// Stop the engine's background machinery before the deferred
		// cleanup closes the devices out from under it.
		env.eng.Crash()
		return Result{}, fmt.Errorf("bench: warm-up of %s: %w", spec.label(), err)
	}
	before := env.eng.Snapshot()
	beforeCounts := env.driver.Counts()
	beforeKinds := env.driver.KindLatencies()
	wallStart := time.Now()
	if err := runPhase(measure); err != nil {
		env.eng.Crash()
		return Result{}, fmt.Errorf("bench: measurement of %s: %w", spec.label(), err)
	}
	wall := time.Since(wallStart)
	after := env.eng.Snapshot()
	afterCounts := env.driver.Counts()
	afterKinds := env.driver.KindLatencies()

	res := g.summarize(env, spec, before, after, beforeCounts, afterCounts)
	res.WallClock = wall
	// The per-kind wall-clock latency histograms live in the driver.
	var total obs.HistSnapshot
	res.KindLatencies = make(map[string]obs.Summary, len(afterKinds))
	for name, a := range afterKinds {
		w := a.Sub(beforeKinds[name])
		if w.Count == 0 {
			continue
		}
		res.KindLatencies[name] = w.Summary()
		total = total.Merge(w)
	}
	res.TxLatency = total.Summary()
	res.TpmCWall = metrics.PerMinute(res.NewOrders, wall)
	// Close the instance, which stops its log syncer goroutine; the
	// devices are discarded with the env.
	if err := env.eng.Close(); err != nil {
		return Result{}, fmt.Errorf("bench: closing %s: %w", spec.label(), err)
	}
	g.progress("%-12s cache=%4.0f%%  tpmC=%8.0f  flash-hit=%5.1f%%  wr-red=%5.1f%%  util=%5.1f%%",
		res.Label, res.CacheFraction*100, res.TpmC, res.FlashHitRate*100, res.WriteReduction*100, res.FlashUtilization*100)
	return res, nil
}

func (g *Golden) summarize(env *runEnv, spec RunSpec, before, after engine.Snapshot, bc, ac tpcc.Counts) Result {
	elapsed := after.Elapsed - before.Elapsed
	newOrders := ac.NewOrders() - bc.NewOrders()
	totalTx := ac.Total() - bc.Total()

	res := Result{
		Label:         spec.label(),
		Backend:       env.backend,
		WallclockMode: g.opts.Wallclock || env.backend == BackendFile,
		Policy:        spec.Policy,
		CacheFraction: spec.CacheFraction,
		CacheFrames:   env.frames,
		BufferPages:   env.bufPages,
		DiskCount:     spec.DiskCount,
		Elapsed:       elapsed,
		NewOrders:     newOrders,
		TotalTx:       totalTx,
		TpmC:          metrics.PerMinute(newOrders, elapsed),
		TotalTpm:      metrics.PerMinute(totalTx, elapsed),
		Checkpoints:   after.Checkpoints - before.Checkpoints,
	}
	poolDelta := after.Pool.Hits + after.Pool.Misses - before.Pool.Hits - before.Pool.Misses
	if poolDelta > 0 {
		res.DRAMHitRate = float64(after.Pool.Hits-before.Pool.Hits) / float64(poolDelta)
	}
	dataDelta := after.Data.Sub(before.Data)
	res.DiskReads = dataDelta.Reads()
	res.DiskWrites = dataDelta.Writes()
	res.DataUtilization = metrics.Utilization(dataDelta.Busy/time.Duration(env.dataDev.Parallelism()), elapsed)

	if spec.Policy.UsesFlash() {
		cacheDelta := cacheStatsDelta(before.Cache, after.Cache)
		res.FlashHitRate = cacheDelta.HitRate()
		res.WriteReduction = cacheDelta.WriteReduction()
		flashDelta := after.Flash.Sub(before.Flash)
		res.FlashReads = flashDelta.Reads()
		res.FlashWrites = flashDelta.Writes()
		res.FlashUtilization = metrics.Utilization(flashDelta.Busy, elapsed)
		res.FlashIOPS = metrics.IOPS(flashDelta.Ops(), elapsed)
	}
	res.Terminals = spec.Terminals
	res.DeadlockRetries = ac.DeadlockRetries - bc.DeadlockRetries
	res.Locks = after.Locks.Sub(before.Locks)
	res.Wal = after.Wal.Sub(before.Wal)
	return res
}

func cacheStatsDelta(before, after face.Stats) face.Stats {
	return face.Stats{
		Lookups:         after.Lookups - before.Lookups,
		Hits:            after.Hits - before.Hits,
		StageIns:        after.StageIns - before.StageIns,
		DirtyStageIns:   after.DirtyStageIns - before.DirtyStageIns,
		CleanStageIns:   after.CleanStageIns - before.CleanStageIns,
		FlashPageWrites: after.FlashPageWrites - before.FlashPageWrites,
		FlashPageReads:  after.FlashPageReads - before.FlashPageReads,
		DiskPageWrites:  after.DiskPageWrites - before.DiskPageWrites,
		Invalidations:   after.Invalidations - before.Invalidations,
		SecondChances:   after.SecondChances - before.SecondChances,
		Pulled:          after.Pulled - before.Pulled,
		MetadataFlushes: after.MetadataFlushes - before.MetadataFlushes,
	}
}

// RecoveryRun measures restart after a crash for Table 6 and Figure 6.
type RecoveryRun struct {
	Label               string
	CheckpointInterval  time.Duration
	RestartTime         time.Duration
	MetadataRestoreTime time.Duration
	// RestartWall is the host wall-clock time of the restart.  On the
	// file backend the device files are really closed after the crash and
	// reopened from the directory, so it covers fresh descriptors, real
	// reads and the recovery passes — the downtime a served deployment
	// (faced) would observe.  On the in-memory backend it is just the
	// host-side cost of the recovery passes.
	RestartWall time.Duration
	// WallclockMode marks a run whose text report shows RestartWall (file
	// backend, or Options.Wallclock), as on Result.
	WallclockMode bool

	FlashReads  int64
	DiskReads   int64
	RedoApplied int
	// PagesRedone and PagesSkipped are the distinct pages redo changed and
	// did not read (see recovery.Report).
	PagesRedone  int
	PagesSkipped int
	// RecordsReplayed is the number of log records restart scanned; it
	// measures how much lost work the crash left behind, which differs
	// between configurations because a faster system loses more work per
	// wall-clock checkpoint interval.
	RecordsReplayed int
	// Timeline is the post-restart throughput (transactions per minute per
	// bucket), used by Figure 6.  Timeline[i] covers simulated time
	// [i*BucketWidth, (i+1)*BucketWidth) measured from the crash.
	Timeline    []float64
	BucketWidth time.Duration
}

// RunRecovery runs the workload with periodic checkpoints, crashes the
// engine halfway through a checkpoint interval, restarts it and (when
// buckets > 0) keeps running to record the post-restart throughput
// timeline.
func (g *Golden) RunRecovery(spec RunSpec, buckets int, bucketWidth time.Duration) (RecoveryRun, error) {
	if spec.CheckpointEvery <= 0 {
		spec.CheckpointEvery = g.opts.CheckpointIntervals[0]
	}
	env, err := g.build(spec, false, nil)
	if err != nil {
		return RecoveryRun{}, err
	}
	// The crash/restart cycle below reuses the same devices, so the file
	// set (if any) is released only when the whole experiment is done.
	defer env.cleanup()
	warmup := spec.WarmupTx
	if warmup == 0 {
		warmup = g.opts.WarmupTx
	}
	if err := env.driver.RunMany(warmup); err != nil {
		env.eng.Crash()
		return RecoveryRun{}, fmt.Errorf("bench: recovery warm-up of %s: %w", spec.label(), err)
	}

	// Run until at least two checkpoints completed, then crash in the
	// middle of the next interval.
	var lastCkptAt time.Duration
	lastCkptCount := env.eng.Checkpoints()
	// Safety bound: if the configured interval is so long that two
	// checkpoints never complete, crash anyway after a generous number of
	// transactions.
	maxTx := 30000
	for i := 0; i < maxTx; i++ {
		if _, err := env.driver.RunOne(); err != nil {
			env.eng.Crash()
			return RecoveryRun{}, err
		}
		now := env.eng.Elapsed()
		if c := env.eng.Checkpoints(); c != lastCkptCount {
			lastCkptCount = c
			lastCkptAt = now
		}
		if lastCkptCount >= 2 && now-lastCkptAt >= spec.CheckpointEvery/2 {
			break
		}
	}
	env.eng.Crash()

	// Restart.  On the file backend the crash really closes the device
	// files and the restart reopens them from the directory, so the wall
	// clock below measures genuine downtime; in-memory devices are reused
	// as-is (their contents must survive the simulated crash).
	wallStart := time.Now()
	if err := env.reopenFiles(); err != nil {
		return RecoveryRun{}, err
	}
	env2, err := g.build(spec, true, env)
	if err != nil {
		return RecoveryRun{}, err
	}
	restartWall := time.Since(wallStart)
	rep := env2.eng.RecoveryReport()
	if rep == nil {
		env2.eng.Crash()
		return RecoveryRun{}, fmt.Errorf("bench: %s: restart produced no recovery report", spec.label())
	}
	run := RecoveryRun{
		Label:               spec.label(),
		CheckpointInterval:  spec.CheckpointEvery,
		RestartTime:         rep.TotalTime,
		RestartWall:         restartWall,
		WallclockMode:       g.opts.Wallclock || env.backend == BackendFile,
		MetadataRestoreTime: rep.MetadataRestoreTime,
		FlashReads:          rep.FlashReads,
		DiskReads:           rep.DiskReads,
		RedoApplied:         rep.RedoApplied,
		PagesRedone:         rep.PagesRedone,
		PagesSkipped:        rep.PagesSkipped,
		RecordsReplayed:     rep.RecordsScanned,
		BucketWidth:         bucketWidth,
	}

	if buckets > 0 {
		run.Timeline = make([]float64, buckets)
		counts := make([]int64, buckets)
		base := env2.eng.Snapshot()
		horizon := time.Duration(buckets) * bucketWidth
		prevNewOrders := env2.driver.Counts().NewOrders()
		for {
			if _, err := env2.driver.RunOne(); err != nil {
				env2.eng.Crash()
				return RecoveryRun{}, err
			}
			now := rep.TotalTime + (env2.eng.Snapshot().Elapsed - base.Elapsed)
			if now >= horizon {
				break
			}
			cur := env2.driver.Counts().NewOrders()
			bucket := int(now / bucketWidth)
			counts[bucket] += cur - prevNewOrders
			prevNewOrders = cur
		}
		for i := range counts {
			run.Timeline[i] = metrics.PerMinute(counts[i], bucketWidth)
		}
	}
	if err := env2.eng.Close(); err != nil {
		return RecoveryRun{}, fmt.Errorf("bench: closing restarted %s: %w", spec.label(), err)
	}
	g.progress("%-12s interval=%-6v restart=%v wall=%v (metadata %v, flash reads %d, disk reads %d)",
		run.Label, run.CheckpointInterval, run.RestartTime, run.RestartWall.Round(time.Millisecond),
		run.MetadataRestoreTime, run.FlashReads, run.DiskReads)
	return run, nil
}
