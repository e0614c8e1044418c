package bench

import (
	"fmt"

	"github.com/reprolab/face/internal/engine"
)

// Ablations beyond the paper's tables: each isolates one design choice
// discussed in Section 3 of the paper so its contribution can be measured
// separately.

// AblationSyncPolicy compares write-back (FaCE+GSC) against a TAC-style
// write-through cache at the same cache size ("Write-Back than
// Write-Through", Section 3.2).
func (g *Golden) AblationSyncPolicy(cacheFraction float64) ([]Result, error) {
	if cacheFraction <= 0 {
		cacheFraction = 0.12
	}
	var out []Result
	for _, spec := range []RunSpec{
		{Policy: engine.PolicyFaCEGSC, CacheFraction: cacheFraction, Label: "write-back (FaCE+GSC)"},
		{Policy: engine.PolicyWriteThrough, CacheFraction: cacheFraction, Label: "write-through (TAC-style)"},
	} {
		res, err := g.Run(spec)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationGroupSize sweeps the replacement batch size of Group Second
// Chance (the paper suggests the number of pages in a flash block,
// typically 64 or 128).  Group sizes the cache cannot hold twice are left
// out: every row runs on the cache size the fraction names.
func (g *Golden) AblationGroupSize(cacheFraction float64, groupSizes []int) ([]Result, error) {
	if cacheFraction <= 0 {
		cacheFraction = 0.12
	}
	if len(groupSizes) == 0 {
		groupSizes = []int{1, 16, 64, 128}
	}
	var out []Result
	for _, gs := range groupSizes {
		if !g.holdsTwoGroups(cacheFraction, gs) {
			g.progress("skipping group=%d: %d frames hold fewer than two groups", gs, g.cacheFrames(cacheFraction))
			continue
		}
		policy := engine.PolicyFaCEGSC
		if gs <= 1 {
			policy = engine.PolicyFaCE
		}
		res, err := g.Run(RunSpec{
			Policy:        policy,
			CacheFraction: cacheFraction,
			GroupSize:     gs,
			Label:         fmt.Sprintf("group=%d", gs),
		})
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationSegmentSize sweeps the persistent metadata segment size
// (Section 4.1; the paper uses 64 000 entries ≈ 1.5 MB).
func (g *Golden) AblationSegmentSize(cacheFraction float64, segmentSizes []int) ([]Result, error) {
	if cacheFraction <= 0 {
		cacheFraction = 0.12
	}
	if len(segmentSizes) == 0 {
		segmentSizes = []int{128, 1024, 8192}
	}
	var out []Result
	for _, ss := range segmentSizes {
		res, err := g.Run(RunSpec{
			Policy:         engine.PolicyFaCEGSC,
			CacheFraction:  cacheFraction,
			SegmentEntries: ss,
			Label:          fmt.Sprintf("segment=%d", ss),
		})
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
