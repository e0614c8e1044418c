package bench

import (
	"fmt"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
)

// --- Table 1 ---------------------------------------------------------------

// Table1Row is one device of Table 1 (price and performance
// characteristics).
type Table1Row struct {
	Name          string
	Media         string
	RandReadIOPS  float64
	RandWriteIOPS float64
	SeqReadMBps   float64
	SeqWriteMBps  float64
	CapacityGB    float64
	PriceUSD      float64
	PricePerGB    float64
}

// Table1DeviceCharacteristics reports the calibrated device profiles, i.e.
// the simulator's counterpart of the paper's Table 1.
func Table1DeviceCharacteristics() []Table1Row {
	var rows []Table1Row
	for _, p := range device.Table1Profiles() {
		rows = append(rows, Table1Row{
			Name:          p.Name,
			Media:         p.Media.String(),
			RandReadIOPS:  p.RandReadIOPS,
			RandWriteIOPS: p.RandWriteIOPS,
			SeqReadMBps:   p.SeqReadMBps,
			SeqWriteMBps:  p.SeqWriteMBps,
			CapacityGB:    p.CapacityGB,
			PriceUSD:      p.PriceUSD,
			PricePerGB:    p.PricePerGB(),
		})
	}
	return rows
}

// --- Tables 3 and 4 ----------------------------------------------------------

// SweepResult holds the cache-size sweep shared by Tables 3 and 4: every
// compared policy measured at every cache size.
type SweepResult struct {
	Fractions []float64
	Policies  []engine.CachePolicy
	// Results[policy][i] corresponds to Fractions[i].
	Results map[engine.CachePolicy][]Result
}

// CacheSweep runs every compared policy at every cache fraction.
func (g *Golden) CacheSweep(policies []engine.CachePolicy, fractions []float64) (SweepResult, error) {
	if len(policies) == 0 {
		policies = ComparedPolicies()
	}
	if len(fractions) == 0 {
		fractions = g.opts.CacheFractions
	}
	fractions = g.fittingFractions(fractions)
	sweep := SweepResult{
		Fractions: fractions,
		Policies:  policies,
		Results:   make(map[engine.CachePolicy][]Result, len(policies)),
	}
	for _, p := range policies {
		for _, f := range fractions {
			res, err := g.Run(RunSpec{Policy: p, CacheFraction: f})
			if err != nil {
				return sweep, err
			}
			sweep.Results[p] = append(sweep.Results[p], res)
		}
	}
	return sweep, nil
}

// Table3HitAndWriteReduction reproduces Table 3: flash cache hit ratio and
// write reduction versus cache size for LC, FaCE, FaCE+GR and FaCE+GSC.
func (g *Golden) Table3HitAndWriteReduction() (SweepResult, error) {
	return g.CacheSweep(nil, g.opts.CacheFractions)
}

// Table4UtilizationAndIOPS reproduces Table 4 from the same sweep as
// Table 3 (the harness exposes both views of one SweepResult).
func (g *Golden) Table4UtilizationAndIOPS() (SweepResult, error) {
	return g.CacheSweep(nil, g.opts.CacheFractions)
}

// --- Figure 4 ----------------------------------------------------------------

// FigureSeries is one line of a figure: label plus (x, y) points.
type FigureSeries struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure4Result holds the throughput curves of Figure 4 for one SSD type.
type Figure4Result struct {
	SSDName string
	// Series holds one tpmC-vs-cache-fraction curve per cache policy.
	Series []FigureSeries
	// HDDOnly and SSDOnly are the flat reference lines of the figure.
	HDDOnly Result
	SSDOnly Result
}

// Figure4Throughput reproduces Figure 4: transaction throughput as a
// function of the flash cache size for every policy, plus the HDD-only and
// SSD-only reference configurations, on the given SSD model.
func (g *Golden) Figure4Throughput(ssd device.Profile) (Figure4Result, error) {
	out := Figure4Result{SSDName: ssd.Name}
	hdd, err := g.Run(RunSpec{Policy: engine.PolicyNone})
	if err != nil {
		return out, err
	}
	out.HDDOnly = hdd
	ssdOnly, err := g.Run(RunSpec{Policy: engine.PolicyNone, DataOnFlash: true, FlashProfile: ssd, Label: "SSD-only"})
	if err != nil {
		return out, err
	}
	out.SSDOnly = ssdOnly

	for _, p := range ComparedPolicies() {
		series := FigureSeries{Label: p.String()}
		for _, f := range g.fittingFractions(g.opts.Figure4Fractions) {
			res, err := g.Run(RunSpec{Policy: p, CacheFraction: f, FlashProfile: ssd})
			if err != nil {
				return out, err
			}
			series.X = append(series.X, f)
			series.Y = append(series.Y, res.TpmC)
		}
		out.Series = append(out.Series, series)
	}
	return out, nil
}

// --- Table 5 -----------------------------------------------------------------

// Table5Row is one increment step of the DRAM-vs-flash comparison.
type Table5Row struct {
	Step      int
	MoreDRAM  Result
	MoreFlash Result
}

// Table5DRAMvsFlash reproduces Table 5: equal monetary increments spent on
// DRAM (no flash cache, larger buffer pool) versus flash (FaCE+GSC cache
// ten times the DRAM increment, matching the ~10x price-per-GB gap).
func (g *Golden) Table5DRAMvsFlash(steps int) ([]Table5Row, error) {
	if steps <= 0 {
		steps = 5
	}
	baseBuffer := int(float64(g.dbPages) * g.opts.BufferFraction)
	if baseBuffer < g.opts.MinBufferPages {
		baseBuffer = g.opts.MinBufferPages
	}
	var rows []Table5Row
	for k := 1; k <= steps; k++ {
		dram, err := g.Run(RunSpec{
			Policy:      engine.PolicyNone,
			BufferPages: baseBuffer * (1 + k),
			Label:       fmt.Sprintf("DRAM x%d", k),
		})
		if err != nil {
			return rows, err
		}
		flashFraction := float64(baseBuffer*10*k) / float64(g.dbPages)
		flash, err := g.Run(RunSpec{
			Policy:        engine.PolicyFaCEGSC,
			BufferPages:   baseBuffer,
			CacheFraction: flashFraction,
			Label:         fmt.Sprintf("Flash x%d", k),
		})
		if err != nil {
			return rows, err
		}
		rows = append(rows, Table5Row{Step: k, MoreDRAM: dram, MoreFlash: flash})
	}
	return rows, nil
}

// --- Figure 5 -----------------------------------------------------------------

// Figure5Result holds throughput versus number of disks for FaCE+GSC, LC
// and HDD-only.
type Figure5Result struct {
	DiskCounts []int
	Series     []FigureSeries
}

// Figure5DiskScaling reproduces Figure 5: transaction throughput as the
// RAID-0 data volume grows from 4 to 16 disks, with the flash cache size
// fixed (the paper uses 6 GB ≈ 12 % of the database).
func (g *Golden) Figure5DiskScaling(cacheFraction float64) (Figure5Result, error) {
	if cacheFraction <= 0 {
		cacheFraction = 0.12
	}
	out := Figure5Result{DiskCounts: g.opts.DiskCounts}
	configs := []struct {
		label string
		spec  RunSpec
	}{
		{"FaCE+GSC", RunSpec{Policy: engine.PolicyFaCEGSC, CacheFraction: cacheFraction}},
		{"LC", RunSpec{Policy: engine.PolicyLC, CacheFraction: cacheFraction}},
		{"HDD-only", RunSpec{Policy: engine.PolicyNone}},
	}
	for _, c := range configs {
		series := FigureSeries{Label: c.label}
		for _, disks := range g.opts.DiskCounts {
			spec := c.spec
			spec.DiskCount = disks
			spec.Label = c.label
			res, err := g.Run(spec)
			if err != nil {
				return out, err
			}
			series.X = append(series.X, float64(disks))
			series.Y = append(series.Y, res.TpmC)
		}
		out.Series = append(out.Series, series)
	}
	return out, nil
}

// --- Table 6 and Figure 6 ------------------------------------------------------

// Table6Row compares restart time after a crash for one checkpoint
// interval.
type Table6Row struct {
	Interval time.Duration
	FaCE     RecoveryRun
	HDDOnly  RecoveryRun
}

// Table6RecoveryTime reproduces Table 6: time to restart the system after a
// crash in the middle of a checkpoint interval, with and without the flash
// cache.
func (g *Golden) Table6RecoveryTime(cacheFraction float64) ([]Table6Row, error) {
	if cacheFraction <= 0 {
		cacheFraction = g.opts.RecoveryCacheFraction
	}
	var rows []Table6Row
	for _, interval := range g.opts.CheckpointIntervals {
		face, err := g.RunRecovery(RunSpec{
			Policy:          engine.PolicyFaCEGSC,
			CacheFraction:   cacheFraction,
			BufferPages:     g.opts.RecoveryBufferPages,
			CheckpointEvery: interval,
			Label:           "FaCE+GSC",
		}, 0, 0)
		if err != nil {
			return rows, err
		}
		hdd, err := g.RunRecovery(RunSpec{
			Policy:          engine.PolicyNone,
			BufferPages:     g.opts.RecoveryBufferPages,
			CheckpointEvery: interval,
			Label:           "HDD-only",
		}, 0, 0)
		if err != nil {
			return rows, err
		}
		rows = append(rows, Table6Row{Interval: interval, FaCE: face, HDDOnly: hdd})
	}
	return rows, nil
}

// Figure6Result holds the post-restart throughput timelines.
type Figure6Result struct {
	BucketWidth time.Duration
	FaCE        RecoveryRun
	HDDOnly     RecoveryRun
}

// Figure6PostRestartThroughput reproduces Figure 6: transaction throughput
// as a function of time immediately after the system restarts from a
// failure.
func (g *Golden) Figure6PostRestartThroughput(cacheFraction float64) (Figure6Result, error) {
	if cacheFraction <= 0 {
		cacheFraction = g.opts.RecoveryCacheFraction
	}
	interval := g.opts.CheckpointIntervals[len(g.opts.CheckpointIntervals)-1]
	out := Figure6Result{BucketWidth: g.opts.Figure6BucketWidth}
	face, err := g.RunRecovery(RunSpec{
		Policy:          engine.PolicyFaCEGSC,
		CacheFraction:   cacheFraction,
		BufferPages:     g.opts.RecoveryBufferPages,
		CheckpointEvery: interval,
		Label:           "FaCE+GSC",
	}, g.opts.Figure6Buckets, g.opts.Figure6BucketWidth)
	if err != nil {
		return out, err
	}
	out.FaCE = face
	hdd, err := g.RunRecovery(RunSpec{
		Policy:          engine.PolicyNone,
		BufferPages:     g.opts.RecoveryBufferPages,
		CheckpointEvery: interval,
		Label:           "HDD-only",
	}, g.opts.Figure6Buckets, g.opts.Figure6BucketWidth)
	if err != nil {
		return out, err
	}
	out.HDDOnly = hdd
	return out, nil
}
