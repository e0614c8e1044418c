package face

import (
	"fmt"
	"slices"

	"github.com/reprolab/face/internal/device"
)

// PolicyParams carries the engine-supplied wiring and sizing NewPolicy
// builds a cache manager from.  Schemes ignore fields that do not apply to
// them (LC ignores GroupSize, and so on).
type PolicyParams struct {
	// Dev is the flash device dedicated to the cache.
	Dev device.Dev
	// Frames is the cache capacity in 4 KiB page frames.
	Frames int
	// GroupSize is the replacement batch size for the group optimizations
	// (0 = DefaultGroupSize where grouping applies).
	GroupSize int
	// SegmentEntries sizes the persistent metadata segments (0 = default).
	SegmentEntries int
	// Stripes is the number of directory stripes the lookup structures
	// are split over (0 = 1, the historical single-mutex path).  Policies
	// without striped structures ignore it.
	Stripes int
	// DiskWrite writes a dirty page back to the database on disk.
	DiskWrite DiskWriteFunc
	// DiskSync, when non-nil, is the data device's durability barrier
	// (fsync on file-backed devices, a no-op on simulated ones).  Policies
	// that persist metadata assuming completed disk writes call it first.
	DiskSync func() error
	// Pull, when non-nil, lets Group Second Chance top up a write group
	// with victims pulled from the DRAM buffer's LRU tail.
	Pull PullFunc
}

// policies names the schemes NewPolicy builds, in sorted order: the three
// FaCE variants compared in the paper, its two baselines (Lazy Cleaning
// and write-through) and "none", which runs without a flash cache.
var policies = []string{"face", "face+gr", "face+gsc", "lc", "none", "wt"}

// PolicyRegistered reports whether NewPolicy builds the named policy.
func PolicyRegistered(name string) bool { return slices.Contains(policies, name) }

// PolicyUsesFlash reports whether the named policy needs a flash device.
// Unknown names report false; use PolicyRegistered to distinguish them.
func PolicyUsesFlash(name string) bool { return name != "none" && PolicyRegistered(name) }

// Policies returns the policy names in sorted order.
func Policies() []string { return slices.Clone(policies) }

// NewPolicy constructs the named policy's cache manager.  "none" yields a
// nil Extension and nil error: the engine runs without a flash cache.
func NewPolicy(name string, p PolicyParams) (Extension, error) {
	group := p.GroupSize
	if group <= 0 {
		group = DefaultGroupSize
	}
	switch name {
	case "none":
		return nil, nil
	case "face":
		return NewMVFIFO(MVFIFOConfig{
			Dev: p.Dev, Frames: p.Frames, GroupSize: 1,
			SegmentEntries: p.SegmentEntries, Stripes: p.Stripes,
			DiskWrite: p.DiskWrite, DiskSync: p.DiskSync,
		})
	case "face+gr":
		return NewMVFIFO(MVFIFOConfig{
			Dev: p.Dev, Frames: p.Frames, GroupSize: group,
			SegmentEntries: p.SegmentEntries, Stripes: p.Stripes,
			DiskWrite: p.DiskWrite, DiskSync: p.DiskSync,
		})
	case "face+gsc":
		return NewMVFIFO(MVFIFOConfig{
			Dev: p.Dev, Frames: p.Frames, GroupSize: group, SecondChance: true,
			SegmentEntries: p.SegmentEntries, Stripes: p.Stripes,
			DiskWrite: p.DiskWrite, DiskSync: p.DiskSync, Pull: p.Pull,
		})
	case "lc":
		return NewLC(LCConfig{Dev: p.Dev, Frames: p.Frames, DiskWrite: p.DiskWrite})
	case "wt":
		return NewLC(LCConfig{Dev: p.Dev, Frames: p.Frames, DiskWrite: p.DiskWrite, WriteThrough: true})
	}
	return nil, fmt.Errorf("face: unknown cache policy %q (registered: %v)", name, policies)
}
