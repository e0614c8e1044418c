// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 5) against the simulated
// devices, plus a set of ablation studies for the design choices discussed
// in Section 3.
//
// The harness loads one "golden" TPC-C database image per option set and
// clones it (device contents and catalog) into every experiment
// configuration, so all configurations start from an identical, fully
// checkpointed database.  Measurements are taken between two snapshots
// after a warm-up phase, as in the paper ("all performance measurements
// were done after the flash cache was fully populated").
package bench

import (
	"io"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
)

// Options scales the experiments.  The defaults preserve the paper's
// ratios (DRAM buffer ≈ 0.4 % of the database, flash cache 4–28 % of the
// database, 8-disk RAID-0 data volume) at laptop scale.
type Options struct {
	// Warehouses is the TPC-C scale factor.
	Warehouses int
	// BufferFraction is the DRAM buffer size as a fraction of the
	// database (the paper uses 200 MB / 50 GB = 0.4 %).
	BufferFraction float64
	// MinBufferPages bounds the buffer from below at small scales.
	MinBufferPages int
	// WarmupTx and MeasureTx are the number of transactions run before
	// and during the measurement window of each configuration.
	WarmupTx  int
	MeasureTx int
	// CacheFractions are the flash cache sizes (fraction of the database)
	// used for Tables 3 and 4 (the paper sweeps 2–10 GB of a 50 GB
	// database).
	CacheFractions []float64
	// Figure4Fractions are the cache sizes for Figure 4 (4–28 % of the
	// database).
	Figure4Fractions []float64
	// DiskCounts are the RAID-0 sizes for Figure 5.
	DiskCounts []int
	// DefaultDisks is the data array size for all other experiments.
	DefaultDisks int
	// CheckpointIntervals are the simulated checkpoint intervals for
	// Table 6 (the paper uses 60/120/180 s of wall-clock time; the
	// defaults here are scaled down with the database so that the pages
	// dirtied during one interval still fit in the flash cache, as they do
	// in the paper's configuration).
	CheckpointIntervals []time.Duration
	// RecoveryBufferPages is the DRAM buffer used by the recovery
	// experiments (Table 6, Figure 6).  It is larger than the throughput
	// experiments' buffer so that a crash actually loses a meaningful
	// amount of buffered work, as it does at the paper's scale.
	RecoveryBufferPages int
	// RecoveryCacheFraction is the flash cache size used by the recovery
	// experiments.
	RecoveryCacheFraction float64
	// Figure6Buckets and Figure6BucketWidth shape the post-restart
	// throughput timeline of Figure 6.
	Figure6Buckets     int
	Figure6BucketWidth time.Duration
	// GroupSize and SegmentEntries configure the FaCE cache.
	GroupSize      int
	SegmentEntries int
	// Dir, when non-empty, runs every configuration on persistent
	// file-backed devices (internal/device/filedev) in a fresh
	// subdirectory of Dir per run instead of the simulated in-memory
	// devices (the facebench -dir flag): pread/pwrite I/O, real fsync on
	// every commit force and checkpoint, and restart recovery replaying
	// from real files.  Wall-clock figures (TpmCWall, WallClock) become
	// the headline columns of the text reports.
	Dir string
	// Wallclock adds the wall-clock throughput columns to the text
	// reports even for in-memory runs (they are always included when Dir
	// selects the file backend).  JSON reports carry both either way.
	Wallclock bool
	// NoFsync disables the fsync durability barrier of the file backend
	// (the facebench -nofsync flag): faster sweeps, host-crash durability
	// forfeited.  Ignored without Dir.
	NoFsync bool
	// Terminals, when set (1 or more), runs every throughput experiment
	// from this many concurrent terminal goroutines (RunTerminals) instead
	// of the classic single stream (RunMany) (the facebench -terminals
	// flag); 1 gives the single-terminal baseline of that path.  Recovery
	// experiments keep the classic driver.  Zero preserves the
	// paper-faithful single-stream setup.  Both paths run every
	// transaction through the View/Update scheduler, under page locks.
	Terminals int
	// MLCProfile and SLCProfile are the flash devices for Figure 4(a) and
	// 4(b).
	MLCProfile device.Profile
	SLCProfile device.Profile
	// Seed makes runs deterministic.
	Seed int64
	// Progress, when non-nil, receives one line per completed run.  It is
	// excluded from JSON reports.
	Progress io.Writer `json:"-"`
}

// DefaultOptions returns the scale used by the facebench CLI.
func DefaultOptions() Options {
	return Options{
		Warehouses:            2,
		BufferFraction:        0.004,
		MinBufferPages:        24,
		WarmupTx:              1500,
		MeasureTx:             3000,
		CacheFractions:        []float64{0.04, 0.08, 0.12, 0.16, 0.20},
		Figure4Fractions:      []float64{0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28},
		DiskCounts:            []int{4, 8, 12, 16},
		DefaultDisks:          8,
		CheckpointIntervals:   []time.Duration{500 * time.Millisecond, 1 * time.Second, 1500 * time.Millisecond},
		RecoveryBufferPages:   192,
		RecoveryCacheFraction: 0.35,
		Figure6Buckets:        16,
		Figure6BucketWidth:    500 * time.Millisecond,
		GroupSize:             64,
		SegmentEntries:        1024,
		MLCProfile:            device.ProfileSamsung470,
		SLCProfile:            device.ProfileIntelX25E,
		Seed:                  1,
	}
}

// QuickOptions returns a much smaller scale intended for unit tests and
// testing.B benchmarks.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Warehouses = 1
	o.WarmupTx = 150
	o.MeasureTx = 300
	o.CacheFractions = []float64{0.05, 0.15}
	o.Figure4Fractions = []float64{0.05, 0.15}
	o.DiskCounts = []int{4, 8}
	o.CheckpointIntervals = []time.Duration{500 * time.Millisecond}
	o.RecoveryBufferPages = 448
	o.RecoveryCacheFraction = 0.6
	o.Figure6Buckets = 6
	o.Figure6BucketWidth = 250 * time.Millisecond
	o.GroupSize = 16
	o.SegmentEntries = 256
	o.MinBufferPages = 24
	return o
}

func (o *Options) normalize() {
	d := DefaultOptions()
	if o.Warehouses < 1 {
		o.Warehouses = d.Warehouses
	}
	if o.BufferFraction <= 0 {
		o.BufferFraction = d.BufferFraction
	}
	if o.MinBufferPages < 8 {
		o.MinBufferPages = d.MinBufferPages
	}
	if o.WarmupTx < 0 {
		o.WarmupTx = d.WarmupTx
	}
	if o.MeasureTx < 1 {
		o.MeasureTx = d.MeasureTx
	}
	if len(o.CacheFractions) == 0 {
		o.CacheFractions = d.CacheFractions
	}
	if len(o.Figure4Fractions) == 0 {
		o.Figure4Fractions = d.Figure4Fractions
	}
	if len(o.DiskCounts) == 0 {
		o.DiskCounts = d.DiskCounts
	}
	if o.DefaultDisks < 1 {
		o.DefaultDisks = d.DefaultDisks
	}
	if len(o.CheckpointIntervals) == 0 {
		o.CheckpointIntervals = d.CheckpointIntervals
	}
	if o.RecoveryBufferPages < 1 {
		o.RecoveryBufferPages = d.RecoveryBufferPages
	}
	if o.RecoveryCacheFraction <= 0 {
		o.RecoveryCacheFraction = d.RecoveryCacheFraction
	}
	if o.Figure6Buckets < 1 {
		o.Figure6Buckets = d.Figure6Buckets
	}
	if o.Figure6BucketWidth <= 0 {
		o.Figure6BucketWidth = d.Figure6BucketWidth
	}
	if o.GroupSize < 1 {
		o.GroupSize = d.GroupSize
	}
	if o.SegmentEntries < 16 {
		o.SegmentEntries = d.SegmentEntries
	}
	if o.MLCProfile.Name == "" {
		o.MLCProfile = d.MLCProfile
	}
	if o.SLCProfile.Name == "" {
		o.SLCProfile = d.SLCProfile
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
}

// ComparedPolicies are the cache schemes compared throughout the paper's
// evaluation, in presentation order.
func ComparedPolicies() []engine.CachePolicy {
	return []engine.CachePolicy{
		engine.PolicyLC,
		engine.PolicyFaCE,
		engine.PolicyFaCEGR,
		engine.PolicyFaCEGSC,
	}
}
