package device

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Array is a RAID-0 (striped) array of identical devices.  Block blk maps
// to member blk % n, local block blk / n, which is how the benchmark
// reproduces the paper's 4/8/16-disk configurations (Figure 5).
//
// The array exposes the same Dev interface as a single device.  Its
// Parallelism equals the member count: member devices serve independent
// requests concurrently, so the elapsed-time model divides the array's
// aggregate busy time across members (see the metrics package).
//
// Locking is strictly per member: the array itself holds no lock, and the
// hot paths consult a cached capacity instead of summing member capacities
// under their locks, so concurrent requests for different members never
// serialize on shared state — Parallelism() == n holds for concurrent
// callers, not just for the time model.
type Array struct {
	name    string
	members []*Device
	// total caches the array capacity; it only changes through the bulk
	// content-loading paths (RestoreContent, LoadLogical), which must not
	// run concurrently with I/O anyway.
	total atomic.Int64
}

// NewArray creates a striped array of n devices with the given profile and
// a total capacity of numBlocks blocks.
func NewArray(name string, profile Profile, n int, numBlocks int64) *Array {
	if n < 1 {
		n = 1
	}
	perMember := (numBlocks + int64(n) - 1) / int64(n)
	members := make([]*Device, n)
	for i := range members {
		members[i] = New(fmt.Sprintf("%s[%d]", name, i), profile, perMember)
	}
	a := &Array{name: name, members: members}
	a.total.Store(perMember * int64(n))
	return a
}

// Name returns the array name.
func (a *Array) Name() string { return a.name }

// Members returns the member devices (for per-member inspection in tests).
func (a *Array) Members() []*Device { return a.members }

// Parallelism returns the number of member devices.
func (a *Array) Parallelism() int { return len(a.members) }

// NumBlocks returns the total capacity in blocks.
func (a *Array) NumBlocks() int64 { return a.total.Load() }

func (a *Array) locate(blk int64) (member *Device, local int64) {
	n := int64(len(a.members))
	return a.members[blk%n], blk / n
}

// ReadAt reads block blk into p.
func (a *Array) ReadAt(blk int64, p []byte) error {
	if blk < 0 || blk >= a.NumBlocks() {
		return fmt.Errorf("%w: read block %d of %d (%s)", ErrOutOfRange, blk, a.NumBlocks(), a.name)
	}
	m, local := a.locate(blk)
	return m.ReadAt(local, p)
}

// WriteAt writes block blk from p.
func (a *Array) WriteAt(blk int64, p []byte) error {
	if blk < 0 || blk >= a.NumBlocks() {
		return fmt.Errorf("%w: write block %d of %d (%s)", ErrOutOfRange, blk, a.NumBlocks(), a.name)
	}
	m, local := a.locate(blk)
	return m.WriteAt(local, p)
}

// ReadRun reads n consecutive blocks starting at blk.  A run that spans
// stripe members is split into per-member runs; each member charges its
// portion at sequential rates, mirroring how RAID-0 turns large sequential
// I/O into parallel sequential streams.
func (a *Array) ReadRun(blk int64, n int, fn func(i int, p []byte) error) error {
	if n <= 0 {
		return nil
	}
	if blk < 0 || blk+int64(n) > a.NumBlocks() {
		return fmt.Errorf("%w: read run [%d,%d) of %d (%s)", ErrOutOfRange, blk, blk+int64(n), a.NumBlocks(), a.name)
	}
	// Charge each member its share of the run as sequential I/O, then
	// deliver blocks to the callback in logical order.
	buf := make([]byte, BlockSize)
	for i := 0; i < n; i++ {
		m, local := a.locate(blk + int64(i))
		if err := m.readRunPortion(local, buf); err != nil {
			return err
		}
		if err := fn(i, buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteRun writes len(pages) consecutive blocks starting at blk.
func (a *Array) WriteRun(blk int64, pages [][]byte) error {
	n := len(pages)
	if n == 0 {
		return nil
	}
	if blk < 0 || blk+int64(n) > a.NumBlocks() {
		return fmt.Errorf("%w: write run [%d,%d) of %d (%s)", ErrOutOfRange, blk, blk+int64(n), a.NumBlocks(), a.name)
	}
	for i, p := range pages {
		if len(p) < BlockSize {
			return fmt.Errorf("%w: run element %d", ErrShortBuffer, i)
		}
		m, local := a.locate(blk + int64(i))
		if err := m.writeRunPortion(local, p); err != nil {
			return err
		}
	}
	return nil
}

// readRunPortion reads a single block charged at the sequential rate.
func (d *Device) readRunPortion(blk int64, p []byte) error {
	d.mu.Lock()
	if blk < 0 || blk >= d.numBlocks {
		d.mu.Unlock()
		return fmt.Errorf("%w: read block %d of %d (%s)", ErrOutOfRange, blk, d.numBlocks, d.name)
	}
	d.lastRead = blk
	d.charge(false, true, 1)
	d.loadLocked(blk, p)
	d.mu.Unlock()
	return nil
}

// writeRunPortion writes a single block charged at the sequential rate.
func (d *Device) writeRunPortion(blk int64, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if blk < 0 || blk >= d.numBlocks {
		return fmt.Errorf("%w: write block %d of %d (%s)", ErrOutOfRange, blk, d.numBlocks, d.name)
	}
	d.lastWrite = blk
	d.charge(true, true, 1)
	d.storeLocked(blk, p)
	return nil
}

// Stats returns the aggregate statistics across all members.  Each member
// is snapshotted under its own lock; no array-level lock is taken.
func (a *Array) Stats() Stats {
	var total Stats
	for _, m := range a.members {
		total = total.Add(m.Stats())
	}
	return total
}

// ResetStats clears all member statistics.
func (a *Array) ResetStats() {
	for _, m := range a.members {
		m.ResetStats()
	}
}

// BusyTime returns the aggregate busy time across all members.  Divide by
// Parallelism() to estimate the wall-clock contribution of the array under
// a balanced load.
func (a *Array) BusyTime() time.Duration {
	return a.Stats().Busy
}

// MaxMemberBusy returns the largest member busy time, a tighter bound on
// the array's wall-clock contribution when load is imbalanced.
func (a *Array) MaxMemberBusy() time.Duration {
	var max time.Duration
	for _, m := range a.members {
		if b := m.BusyTime(); b > max {
			max = b
		}
	}
	return max
}

// SnapshotContent returns a deep copy of all member contents.
func (a *Array) SnapshotContent() [][][]byte {
	out := make([][][]byte, len(a.members))
	for i, m := range a.members {
		out[i] = m.SnapshotContent()
	}
	return out
}

// RestoreContent restores member contents from a snapshot taken with
// SnapshotContent.  The snapshot must have the same member count.
func (a *Array) RestoreContent(snapshot [][][]byte) error {
	if len(snapshot) != len(a.members) {
		return fmt.Errorf("device: snapshot has %d members, array has %d", len(snapshot), len(a.members))
	}
	for i, m := range a.members {
		m.RestoreContent(snapshot[i])
	}
	a.refreshTotal()
	return nil
}

// refreshTotal recomputes the cached capacity after a bulk content load.
func (a *Array) refreshTotal() {
	var total int64
	for _, m := range a.members {
		total += m.NumBlocks()
	}
	a.total.Store(total)
}

// LoadLogical replaces the array contents with the given logical block
// images (index = logical block number across the whole array) without
// charging any simulated I/O.  Blocks are distributed to members by the
// usual striping rule.  Member capacities grow if needed; statistics are
// reset.
func (a *Array) LoadLogical(blocks [][]byte) {
	n := int64(len(a.members))
	perMember := (int64(len(blocks)) + n - 1) / n
	member := make([][][]byte, len(a.members))
	for i := range member {
		cap := perMember
		if existing := a.members[i].NumBlocks(); existing > cap {
			cap = existing
		}
		member[i] = make([][]byte, cap)
	}
	for blk, content := range blocks {
		if content == nil {
			continue
		}
		m := int64(blk) % n
		local := int64(blk) / n
		cp := make([]byte, BlockSize)
		copy(cp, content)
		member[m][local] = cp
	}
	for i := range a.members {
		a.members[i].RestoreContent(member[i])
	}
	a.refreshTotal()
}
