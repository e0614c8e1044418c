package face

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// fakeDisk records dirty pages written back by the cache managers.  write
// takes the lock, so it is safe under concurrent stage-ins; tests read the
// fields directly only once the cache has been flushed or shut down.
type fakeDisk struct {
	mu     sync.Mutex
	pages  map[page.ID]page.Buf
	writes int
	err    error
}

func newFakeDisk() *fakeDisk { return &fakeDisk{pages: make(map[page.ID]page.Buf)} }

func (d *fakeDisk) write(id page.ID, data page.Buf) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	d.writes++
	d.pages[id] = data.Clone()
	return nil
}

func flashDev(blocks int64) *device.Device {
	return device.New("flash", device.ProfileSamsung470, blocks)
}

// makePage builds a page image with the given id, lsn and a marker byte.
func makePage(id page.ID, lsn page.LSN, marker byte) page.Buf {
	b := page.NewBuf()
	b.Init(id, page.TypeHeap)
	b.SetLSN(lsn)
	b.Payload()[0] = marker
	return b
}

func newFaCE(t *testing.T, frames int, disk *fakeDisk, opts ...func(*MVFIFOConfig)) *MVFIFO {
	t.Helper()
	cfg := MVFIFOConfig{
		Dev:            flashDev(int64(frames) + 64),
		Frames:         frames,
		SegmentEntries: 16,
		DiskWrite:      disk.write,
	}
	for _, o := range opts {
		o(&cfg)
	}
	m, err := NewMVFIFO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMVFIFONames(t *testing.T) {
	disk := newFakeDisk()
	base := newFaCE(t, 8, disk)
	gr := newFaCE(t, 8, disk, func(c *MVFIFOConfig) { c.GroupSize = 4 })
	gsc := newFaCE(t, 8, disk, func(c *MVFIFOConfig) { c.GroupSize = 4; c.SecondChance = true })
	named := newFaCE(t, 8, disk, func(c *MVFIFOConfig) { c.Label = "custom" })
	if base.Name() != "FaCE" || gr.Name() != "FaCE+GR" || gsc.Name() != "FaCE+GSC" || named.Name() != "custom" {
		t.Fatalf("names: %q %q %q %q", base.Name(), gr.Name(), gsc.Name(), named.Name())
	}
}

func TestNewMVFIFOValidation(t *testing.T) {
	disk := newFakeDisk()
	if _, err := NewMVFIFO(MVFIFOConfig{Frames: 8, DiskWrite: disk.write}); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := NewMVFIFO(MVFIFOConfig{Dev: flashDev(100), Frames: 8}); err == nil {
		t.Fatal("nil DiskWrite accepted")
	}
	if _, err := NewMVFIFO(MVFIFOConfig{Dev: flashDev(100), Frames: 2, GroupSize: 4, DiskWrite: disk.write}); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("got %v, want ErrTooSmall", err)
	}
	if _, err := NewMVFIFO(MVFIFOConfig{Dev: flashDev(4), Frames: 1000, DiskWrite: disk.write}); err == nil {
		t.Fatal("oversized frame count accepted")
	}
}

func TestMVFIFOBasicHit(t *testing.T) {
	disk := newFakeDisk()
	m := newFaCE(t, 8, disk)
	p := makePage(42, 7, 0xAA)
	if err := m.StageIn(42, p, true, true); err != nil {
		t.Fatal(err)
	}
	if !m.Contains(42) {
		t.Fatal("page 42 should be cached")
	}
	buf := page.NewBuf()
	found, dirty, err := m.Lookup(42, buf)
	if err != nil || !found || !dirty {
		t.Fatalf("Lookup = %v,%v,%v", found, dirty, err)
	}
	if buf.ID() != 42 || buf.Payload()[0] != 0xAA {
		t.Fatal("lookup returned wrong content")
	}
	if found, _, _ := m.Lookup(99, buf); found {
		t.Fatal("phantom hit")
	}
	s := m.Stats()
	if s.Hits != 1 || s.Lookups != 2 || s.HitRate() != 0.5 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMVFIFOConditionalEnqueue(t *testing.T) {
	disk := newFakeDisk()
	m := newFaCE(t, 8, disk)
	p := makePage(1, 1, 1)
	// Clean page, not cached: enqueued.
	if err := m.StageIn(1, p, false, false); err != nil {
		t.Fatal(err)
	}
	writes := m.Stats().FlashPageWrites
	// Same clean page again: identical copy exists, no flash write.
	if err := m.StageIn(1, p, false, false); err != nil {
		t.Fatal(err)
	}
	if m.Stats().FlashPageWrites != writes {
		t.Fatal("conditional enqueue should skip identical copies")
	}
	// fdirty version: unconditional enqueue, invalidating the old one.
	p2 := makePage(1, 5, 2)
	if err := m.StageIn(1, p2, true, true); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.FlashPageWrites != writes+1 || s.Invalidations != 1 {
		t.Fatalf("stats %+v", s)
	}
	// The valid copy is the new version.
	buf := page.NewBuf()
	found, dirty, _ := m.Lookup(1, buf)
	if !found || !dirty || buf.Payload()[0] != 2 {
		t.Fatal("lookup did not return the latest version")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (one valid + one invalid duplicate)", m.Len())
	}
	if m.Stats().Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", m.Stats().Duplicates)
	}
}

func TestMVFIFOStageOutWritesDirtyToDisk(t *testing.T) {
	disk := newFakeDisk()
	m := newFaCE(t, 4, disk)
	// Fill the cache with dirty pages 1..4, then add page 5: page 1 must
	// be staged out to disk.
	for id := page.ID(1); id <= 5; id++ {
		p := makePage(id, page.LSN(id), byte(id))
		if err := m.StageIn(id, p, true, true); err != nil {
			t.Fatal(err)
		}
	}
	if disk.writes != 1 {
		t.Fatalf("disk writes = %d, want 1", disk.writes)
	}
	if got, ok := disk.pages[1]; !ok || got.Payload()[0] != 1 {
		t.Fatal("page 1 content not written to disk")
	}
	if m.Contains(1) {
		t.Fatal("staged-out page still reported as cached")
	}
	s := m.Stats()
	if s.DiskPageWrites != 1 || s.WriteReduction() <= 0.7 {
		t.Fatalf("stats %+v, write reduction %.2f", s, s.WriteReduction())
	}
}

func TestMVFIFODiscardCleanAndInvalid(t *testing.T) {
	disk := newFakeDisk()
	m := newFaCE(t, 4, disk)
	// Two versions of page 1 (one invalid), then clean pages.
	m.StageIn(1, makePage(1, 1, 1), true, true)
	m.StageIn(1, makePage(1, 2, 2), true, true)
	m.StageIn(2, makePage(2, 1, 1), false, false)
	m.StageIn(3, makePage(3, 1, 1), false, false)
	// Cache full (4 frames).  Adding page 4 dequeues the invalid old
	// version of page 1: no disk write.
	m.StageIn(4, makePage(4, 1, 1), false, false)
	if disk.writes != 0 {
		t.Fatalf("disk writes = %d, want 0 (invalid version discarded)", disk.writes)
	}
	// Adding page 5 dequeues the valid dirty version of page 1: 1 write.
	m.StageIn(5, makePage(5, 1, 1), false, false)
	if disk.writes != 1 {
		t.Fatalf("disk writes = %d, want 1", disk.writes)
	}
	// Adding page 6 dequeues clean page 2: discarded, no write.
	m.StageIn(6, makePage(6, 1, 1), false, false)
	if disk.writes != 1 {
		t.Fatalf("disk writes = %d, want 1 after clean discard", disk.writes)
	}
	if m.Contains(2) {
		t.Fatal("discarded page still cached")
	}
}

func TestMVFIFOSequentialWritePattern(t *testing.T) {
	disk := newFakeDisk()
	dev := flashDev(600)
	m, err := NewMVFIFO(MVFIFOConfig{Dev: dev, Frames: 256, SegmentEntries: 64, DiskWrite: disk.write})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		id := page.ID(i%500 + 1)
		if err := m.StageIn(id, makePage(id, page.LSN(i), byte(i)), true, true); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.Stats()
	if s.RandWrites > s.SeqWrites/10 {
		t.Fatalf("FaCE writes should be overwhelmingly sequential: %v", s)
	}
}

func TestLCRandomWritePattern(t *testing.T) {
	disk := newFakeDisk()
	dev := flashDev(256)
	c, err := NewLC(LCConfig{Dev: dev, Frames: 256, DiskWrite: disk.write})
	if err != nil {
		t.Fatal(err)
	}
	// Evictions arrive in an effectively random page order, as they do
	// from a real buffer pool, so LC's in-place LRU replacement scatters
	// writes across the flash device.
	seed := uint64(1)
	for i := 0; i < 2000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		id := page.ID(seed%500 + 1)
		if err := c.StageIn(id, makePage(id, page.LSN(i), byte(i)), true, true); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.Stats()
	if s.RandWrites < s.SeqWrites {
		t.Fatalf("LC writes should be mostly random at steady state: %v", s)
	}
}

func TestGroupReplacementBatchesIO(t *testing.T) {
	disk := newFakeDisk()
	devSingle := flashDev(200)
	devGroup := flashDev(200)
	single, err := NewMVFIFO(MVFIFOConfig{Dev: devSingle, Frames: 64, SegmentEntries: 32, DiskWrite: disk.write})
	if err != nil {
		t.Fatal(err)
	}
	group, err := NewMVFIFO(MVFIFOConfig{Dev: devGroup, Frames: 64, GroupSize: 16, SegmentEntries: 32, DiskWrite: disk.write})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		id := page.ID(i%300 + 1)
		p := makePage(id, page.LSN(i), byte(i))
		if err := single.StageIn(id, p, true, true); err != nil {
			t.Fatal(err)
		}
		if err := group.StageIn(id, p, true, true); err != nil {
			t.Fatal(err)
		}
	}
	if devGroup.BusyTime() >= devSingle.BusyTime() {
		t.Fatalf("group replacement should reduce flash busy time: group=%v single=%v",
			devGroup.BusyTime(), devSingle.BusyTime())
	}
}

func TestGroupSecondChanceKeepsHotPages(t *testing.T) {
	disk := newFakeDisk()
	m := newFaCE(t, 16, disk, func(c *MVFIFOConfig) { c.GroupSize = 4; c.SecondChance = true })
	// Page 1 is hot: cached and referenced.
	m.StageIn(1, makePage(1, 1, 1), true, true)
	buf := page.NewBuf()
	m.Lookup(1, buf)
	// Fill the cache so replacement reaches page 1.
	for id := page.ID(2); id <= 20; id++ {
		if err := m.StageIn(id, makePage(id, 1, byte(id)), true, true); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Contains(1) {
		t.Fatal("referenced page 1 should have been kept by second chance")
	}
	if m.Stats().SecondChances == 0 {
		t.Fatal("second chances not counted")
	}
}

func TestGSCPullsVictimsFromDRAM(t *testing.T) {
	disk := newFakeDisk()
	nextPull := page.ID(1000)
	pull := func(n int, take func([]PulledPage)) {
		var out []PulledPage
		for i := 0; i < n; i++ {
			id := nextPull
			nextPull++
			out = append(out, PulledPage{ID: id, Data: makePage(id, 1, 9), Dirty: true, FDirty: true})
		}
		take(out)
	}
	m := newFaCE(t, 16, disk, func(c *MVFIFOConfig) {
		c.GroupSize = 8
		c.SecondChance = true
		c.Pull = pull
	})
	for id := page.ID(1); id <= 40; id++ {
		if err := m.StageIn(id, makePage(id, 1, byte(id)), true, true); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.Pulled == 0 {
		t.Fatal("GSC never pulled DRAM victims")
	}
	// Every pulled page was dirty, so it must either still be cached or
	// have been staged out to disk — it can never simply vanish.
	for id := page.ID(1000); id < nextPull; id++ {
		if _, onDisk := disk.pages[id]; !onDisk && !m.Contains(id) {
			t.Fatalf("pulled page %d neither cached nor written to disk", id)
		}
	}
}

// TestGSCLookupNeverSeesSurvivorOverPull re-enqueues a hot page as a
// second-chance survivor in the same write group as a newer version of it
// pulled from DRAM, over and over, while another goroutine looks the page up.
// Once the pulled version has been handed over, no lookup may return an
// older one: the survivor is published first, and the transit copy of the
// pulled version must keep serving the page until its own frame is.
func TestGSCLookupNeverSeesSurvivorOverPull(t *testing.T) {
	disk := newFakeDisk()
	const hot = page.ID(1)
	var m *MVFIFO
	var floor atomic.Uint64 // LSN of the newest version of hot handed over
	nextFiller := page.ID(1000)
	survivals := 0
	pull := func(n int, take func([]PulledPage)) {
		// Pull a newer hot page when its frame has just survived, after as
		// many other victims as fit, so that a whole group of publications
		// lies between the survivor's and the pulled page's.
		st := m.stripe(hot)
		st.mu.Lock()
		_, survived := st.transit[hot]
		st.mu.Unlock()
		if !survived {
			return
		}
		survivals++
		out := make([]PulledPage, 0, n)
		for len(out) < n-1 {
			out = append(out, PulledPage{ID: nextFiller, Data: makePage(nextFiller, 1, 0), FDirty: true})
			nextFiller++
		}
		lsn := page.LSN(floor.Load() + 1)
		out = append(out, PulledPage{ID: hot, Data: makePage(hot, lsn, 1), Dirty: true, FDirty: true})
		take(out)
		floor.Store(uint64(lsn))
	}
	m = newFaCE(t, 64, disk, func(c *MVFIFOConfig) {
		c.GroupSize = 16
		c.SecondChance = true
		c.Pull = pull
	})
	if err := m.StageIn(hot, makePage(hot, 1, 1), true, true); err != nil {
		t.Fatal(err)
	}
	floor.Store(1)

	stop := make(chan struct{})
	var readErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := page.NewBuf()
		for {
			select {
			case <-stop:
				return
			default:
			}
			want := floor.Load()
			found, _, err := m.Lookup(hot, buf)
			if err != nil {
				readErr.Store(err)
				return
			}
			if found && uint64(buf.LSN()) < want {
				readErr.Store(fmt.Errorf("Lookup(%d) returned LSN %d, want at least %d", hot, buf.LSN(), want))
				return
			}
		}
	}()
	buf := page.NewBuf()
	var err error
	for r := 0; r < 3000 && err == nil && readErr.Load() == nil; r++ {
		id := page.ID(2 + r%200)
		if err = m.StageIn(id, makePage(id, 1, byte(id)), false, true); err == nil {
			// Reference the hot page between stage-ins, so that it
			// survives every time it reaches the front.
			_, _, err = m.Lookup(hot, buf)
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := readErr.Load(); err != nil {
		t.Fatal(err)
	}
	if survivals < 20 {
		t.Fatalf("the hot page survived next to a newer pulled version %d times, want at least 20", survivals)
	}
}

func TestMVFIFOCheckpointAndRecover(t *testing.T) {
	disk := newFakeDisk()
	dev := flashDev(300)
	cfg := MVFIFOConfig{Dev: dev, Frames: 64, SegmentEntries: 8, DiskWrite: disk.write}
	m, err := NewMVFIFO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stage in 40 dirty pages; with 8-entry segments most metadata is
	// persisted automatically, the tail only in RAM.
	for id := page.ID(1); id <= 40; id++ {
		if err := m.StageIn(id, makePage(id, page.LSN(100+id), byte(id)), true, true); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without a checkpoint: build a fresh manager on the same device
	// and recover.
	m2, err := NewMVFIFO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Every page staged in must be discoverable after recovery: the
	// persisted segments cover the old ones and the stamp scan the rest.
	missing := 0
	for id := page.ID(1); id <= 40; id++ {
		if !m2.Contains(id) {
			missing++
		}
	}
	if missing != 0 {
		t.Fatalf("%d of 40 pages lost after recovery", missing)
	}
	buf := page.NewBuf()
	found, dirty, err := m2.Lookup(17, buf)
	if err != nil || !found || !dirty {
		t.Fatalf("Lookup(17) after recovery = %v,%v,%v", found, dirty, err)
	}
	if buf.Payload()[0] != 17 || buf.LSN() != page.LSN(117) {
		t.Fatal("recovered page content mismatch")
	}
}

// TestMVFIFODefaultSegmentSizeSmallCacheRecovers: a cache with fewer frames
// than the default metadata segment has entries must still flush its
// metadata at least once per lap of the queue.  It used not to: after a
// checkpoint and more than a lap of stage-ins, recovery trusted the
// checkpoint's entries for frames that had since been overwritten and
// served one page's image for another.
func TestMVFIFODefaultSegmentSizeSmallCacheRecovers(t *testing.T) {
	const frames = 32
	disk := newFakeDisk()
	cfg := MVFIFOConfig{
		Dev:       flashDev(FlashDeviceBlocks(frames, 0) + FlashDeviceSlack),
		Frames:    frames,
		DiskWrite: disk.write,
	}
	m, err := NewMVFIFO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newest := map[page.ID]page.LSN{}
	for i := 0; i < frames*7/2; i++ {
		id := page.ID(i%50 + 1)
		lsn := page.LSN(i + 1)
		if err := m.StageIn(id, makePage(id, lsn, byte(id)), true, true); err != nil {
			t.Fatal(err)
		}
		newest[id] = lsn
		if i == frames/2 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	m2, err := NewMVFIFO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	buf := page.NewBuf()
	for id, lsn := range newest {
		found, _, err := m2.Lookup(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			// Staged out before the crash: the disk holds the newest version.
			if d := disk.pages[id]; d == nil || d.LSN() != lsn {
				t.Fatalf("page %d: not in the recovered cache and not on disk at LSN %d", id, lsn)
			}
			continue
		}
		if buf.ID() != id || buf.LSN() != lsn {
			t.Fatalf("Lookup(%d) after recovery returned page %d at LSN %d, want LSN %d", id, buf.ID(), buf.LSN(), lsn)
		}
	}
}

func TestMVFIFORecoverAfterCheckpointAndWraparound(t *testing.T) {
	disk := newFakeDisk()
	dev := flashDev(200)
	cfg := MVFIFOConfig{Dev: dev, Frames: 32, SegmentEntries: 8, DiskWrite: disk.write}
	m, err := NewMVFIFO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Push several times the capacity through the cache so the queue and
	// the metadata segment slots wrap around, with a checkpoint midway.
	for i := 0; i < 150; i++ {
		id := page.ID(i%60 + 1)
		if err := m.StageIn(id, makePage(id, page.LSN(i+1), byte(i)), true, true); err != nil {
			t.Fatal(err)
		}
		if i == 75 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cachedBefore := map[page.ID]bool{}
	for id := page.ID(1); id <= 60; id++ {
		if m.Contains(id) {
			cachedBefore[id] = true
		}
	}
	m2, err := NewMVFIFO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	for id := range cachedBefore {
		if !m2.Contains(id) {
			t.Fatalf("page %d cached before crash but lost after recovery", id)
		}
	}
	// Recovered lookups must return the newest version (highest LSN seen).
	buf := page.NewBuf()
	for id := range cachedBefore {
		found, _, err := m2.Lookup(id, buf)
		if err != nil || !found {
			t.Fatalf("Lookup(%d) after recovery failed: %v %v", id, found, err)
		}
		if buf.ID() != id {
			t.Fatalf("Lookup(%d) returned page %d", id, buf.ID())
		}
	}
}

func TestMVFIFOFlushAll(t *testing.T) {
	disk := newFakeDisk()
	m := newFaCE(t, 8, disk)
	for id := page.ID(1); id <= 5; id++ {
		m.StageIn(id, makePage(id, 1, byte(id)), id%2 == 1, true)
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Pages 1, 3, 5 were dirty.
	if disk.writes != 3 {
		t.Fatalf("FlushAll wrote %d pages, want 3", disk.writes)
	}
	if m.DirtyFrames() != 0 {
		t.Fatalf("DirtyFrames after FlushAll = %d", m.DirtyFrames())
	}
	// A second FlushAll writes nothing.
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if disk.writes != 3 {
		t.Fatal("second FlushAll performed writes")
	}
}

func TestMVFIFODiskWriteErrorPropagates(t *testing.T) {
	disk := newFakeDisk()
	m := newFaCE(t, 2, disk)
	m.StageIn(1, makePage(1, 1, 1), true, true)
	m.StageIn(2, makePage(2, 1, 2), true, true)
	disk.err = fmt.Errorf("disk gone")
	if err := m.StageIn(3, makePage(3, 1, 3), true, true); err == nil {
		t.Fatal("expected propagated disk write error")
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := Stats{Lookups: 100, Hits: 80, DirtyStageIns: 50, DiskPageWrites: 20}
	if s.HitRate() != 0.8 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
	if s.WriteReduction() != 0.6 {
		t.Fatalf("WriteReduction = %v", s.WriteReduction())
	}
	var zero Stats
	if zero.HitRate() != 0 || zero.WriteReduction() != 0 {
		t.Fatal("zero stats should yield zero rates")
	}
	neg := Stats{DirtyStageIns: 10, DiskPageWrites: 20}
	if neg.WriteReduction() != 0 {
		t.Fatal("write reduction must not go negative")
	}
}

func TestLCBasics(t *testing.T) {
	disk := newFakeDisk()
	c, err := NewLC(LCConfig{Dev: flashDev(16), Frames: 4, DiskWrite: disk.write})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "LC" || c.Capacity() != 4 {
		t.Fatalf("Name/Capacity = %q/%d", c.Name(), c.Capacity())
	}
	p := makePage(7, 3, 0x77)
	if err := c.StageIn(7, p, true, true); err != nil {
		t.Fatal(err)
	}
	buf := page.NewBuf()
	found, dirty, err := c.Lookup(7, buf)
	if err != nil || !found || !dirty || buf.Payload()[0] != 0x77 {
		t.Fatalf("Lookup = %v,%v,%v", found, dirty, err)
	}
	if found, _, _ := c.Lookup(8, buf); found {
		t.Fatal("phantom hit")
	}
	if !c.Contains(7) || c.Contains(8) || c.Len() != 1 {
		t.Fatal("Contains/Len wrong")
	}
}

func TestLCEvictionWritesDirtyVictim(t *testing.T) {
	disk := newFakeDisk()
	c, err := NewLC(LCConfig{Dev: flashDev(16), Frames: 2, DiskWrite: disk.write})
	if err != nil {
		t.Fatal(err)
	}
	c.StageIn(1, makePage(1, 1, 1), true, true)
	c.StageIn(2, makePage(2, 1, 2), false, false)
	// Page 3 evicts LRU page 1 (dirty): disk write.
	c.StageIn(3, makePage(3, 1, 3), false, false)
	if disk.writes != 1 || disk.pages[1] == nil {
		t.Fatalf("disk writes = %d", disk.writes)
	}
	// Page 4 evicts page 2 (clean): no write.
	c.StageIn(4, makePage(4, 1, 4), false, false)
	if disk.writes != 1 {
		t.Fatalf("clean eviction caused a disk write")
	}
}

func TestLCInPlaceOverwrite(t *testing.T) {
	disk := newFakeDisk()
	dev := flashDev(16)
	c, _ := NewLC(LCConfig{Dev: dev, Frames: 4, DiskWrite: disk.write})
	c.StageIn(1, makePage(1, 1, 1), true, true)
	before := c.Stats().FlashPageWrites
	// New version: in-place overwrite (one more flash write, no new frame).
	c.StageIn(1, makePage(1, 2, 2), true, true)
	if c.Stats().FlashPageWrites != before+1 || c.Len() != 1 {
		t.Fatalf("in-place overwrite stats: writes=%d len=%d", c.Stats().FlashPageWrites, c.Len())
	}
	// Identical copy (fdirty=false): no write.
	c.StageIn(1, makePage(1, 2, 2), true, false)
	if c.Stats().FlashPageWrites != before+1 {
		t.Fatal("identical copy should not be rewritten")
	}
	buf := page.NewBuf()
	found, _, _ := c.Lookup(1, buf)
	if !found || buf.Payload()[0] != 2 {
		t.Fatal("lookup did not return newest version")
	}
}

func TestLCLazyCleaner(t *testing.T) {
	disk := newFakeDisk()
	c, _ := NewLC(LCConfig{Dev: flashDev(64), Frames: 10, CleanThreshold: 0.5, CleanBatch: 4, DiskWrite: disk.write})
	for id := page.ID(1); id <= 8; id++ {
		c.StageIn(id, makePage(id, 1, byte(id)), true, true)
	}
	if c.DirtyFrames() > 6 {
		t.Fatalf("lazy cleaner did not run: %d dirty frames", c.DirtyFrames())
	}
	if disk.writes == 0 {
		t.Fatal("lazy cleaner wrote nothing to disk")
	}
	// Cleaned pages remain cached.
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
}

func TestLCCheckpointFlushesDirtyFrames(t *testing.T) {
	disk := newFakeDisk()
	c, _ := NewLC(LCConfig{Dev: flashDev(64), Frames: 10, DiskWrite: disk.write})
	for id := page.ID(1); id <= 5; id++ {
		c.StageIn(id, makePage(id, 1, byte(id)), true, true)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if disk.writes != 5 {
		t.Fatalf("checkpoint wrote %d pages, want 5", disk.writes)
	}
	if c.DirtyFrames() != 0 {
		t.Fatal("dirty frames remain after checkpoint")
	}
}

func TestLCRecoverStartsCold(t *testing.T) {
	disk := newFakeDisk()
	c, _ := NewLC(LCConfig{Dev: flashDev(64), Frames: 10, DiskWrite: disk.write})
	for id := page.ID(1); id <= 5; id++ {
		c.StageIn(id, makePage(id, 1, byte(id)), true, true)
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.DirtyFrames() != 0 {
		t.Fatal("LC cache should restart cold")
	}
	buf := page.NewBuf()
	if found, _, _ := c.Lookup(1, buf); found {
		t.Fatal("cold cache returned a hit")
	}
	// The cache is usable again after recovery.
	if err := c.StageIn(9, makePage(9, 1, 9), true, true); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(9) {
		t.Fatal("cache unusable after Recover")
	}
}

func TestWriteThroughPolicy(t *testing.T) {
	disk := newFakeDisk()
	c, err := NewLC(LCConfig{Dev: flashDev(64), Frames: 10, WriteThrough: true, DiskWrite: disk.write})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "WT" {
		t.Fatalf("Name = %q", c.Name())
	}
	c.StageIn(1, makePage(1, 1, 1), true, true)
	// Dirty eviction goes straight to disk as well as flash.
	if disk.writes != 1 {
		t.Fatalf("write-through disk writes = %d, want 1", disk.writes)
	}
	if c.DirtyFrames() != 0 {
		t.Fatal("write-through cache should never hold dirty frames")
	}
	// Checkpoint has nothing to do.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if disk.writes != 1 {
		t.Fatal("write-through checkpoint should not write")
	}
	// Reads still hit.
	buf := page.NewBuf()
	if found, dirty, _ := c.Lookup(1, buf); !found || dirty {
		t.Fatalf("Lookup = %v,%v, want hit on clean copy", found, dirty)
	}
}

func TestNewLCValidation(t *testing.T) {
	disk := newFakeDisk()
	if _, err := NewLC(LCConfig{Frames: 4, DiskWrite: disk.write}); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := NewLC(LCConfig{Dev: flashDev(16), Frames: 4}); err == nil {
		t.Fatal("nil DiskWrite accepted")
	}
	if _, err := NewLC(LCConfig{Dev: flashDev(16), Frames: 0, DiskWrite: disk.write}); !errors.Is(err, ErrTooSmall) {
		t.Fatal("zero frames accepted")
	}
	if _, err := NewLC(LCConfig{Dev: flashDev(2), Frames: 100, DiskWrite: disk.write}); err == nil {
		t.Fatal("oversized frame count accepted")
	}
}

// TestWriterPathReturnsWhatItBorrows: the images group replacement works
// with all come back.  A staged page is lent and left as it was (same bytes,
// no enqueue stamp); a pulled DRAM victim's image goes to the home it names
// once its flash frame is published; the frame images read for second
// chances and destages return to the writer path's own list, which never
// grows past its bound; and the pages themselves are all where they should
// be, read back with the right content.
func TestWriterPathReturnsWhatItBorrows(t *testing.T) {
	disk := newFakeDisk()
	home := page.NewFreeList(64)
	var pulled []page.ID
	made := 0
	nextPull := page.ID(1000)
	m := newFaCE(t, 32, disk, func(c *MVFIFOConfig) {
		c.GroupSize = 8
		c.SecondChance = true
		c.Pull = func(n int, take func([]PulledPage)) {
			out := make([]PulledPage, 0, n)
			for i := 0; i < n; i++ {
				if home.Len() == 0 {
					made++ // Get is about to allocate
				}
				img := home.Get()
				copy(img, makePage(nextPull, 1, 9))
				out = append(out, PulledPage{ID: nextPull, Data: img, Home: home, Dirty: true, FDirty: true})
				pulled = append(pulled, nextPull)
				nextPull++
			}
			take(out)
		}
	})
	lent := page.NewBuf()
	probe := page.NewBuf()
	for id := page.ID(1); id <= 200; id++ {
		copy(lent, makePage(id, page.LSN(id), byte(id)))
		if err := m.StageIn(id, lent, true, true); err != nil {
			t.Fatal(err)
		}
		if lent.ID() != id || lent.Payload()[0] != byte(id) || lent.CacheStamp() != 0 {
			t.Fatalf("StageIn wrote to the lent image of page %d", id)
		}
		// Reference a few frames so that replacement has survivors.
		if id%3 == 0 {
			if _, _, err := m.Lookup(id, probe); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := m.Stats()
	if s.Pulled == 0 || s.SecondChances == 0 || s.DiskPageWrites == 0 {
		t.Fatalf("the run exercised too little: %+v", s)
	}
	// Every image the pulls ever made is back home, and they were few: the
	// same ones went round.
	if got := home.Len(); got != made || made > m.cfg.GroupSize {
		t.Fatalf("%d pulls made %d images, %d of them are home", s.Pulled, made, got)
	}
	if got := m.images.Len(); got == 0 || got > 2*m.cfg.GroupSize {
		t.Fatalf("writer path parks %d images, want 1..%d", got, 2*m.cfg.GroupSize)
	}
	check := func(id page.ID, marker byte) {
		found, _, err := m.Lookup(id, probe)
		if err != nil {
			t.Fatal(err)
		}
		img := probe
		if !found {
			img = disk.pages[id]
		}
		if img == nil || img.ID() != id || img.Payload()[0] != marker {
			t.Fatalf("page %d (cached=%v) reads back wrong", id, found)
		}
	}
	for id := page.ID(1); id <= 200; id++ {
		check(id, byte(id))
	}
	for _, id := range pulled {
		check(id, 9)
	}
}

// TestMVFIFOConcurrentLookupDuringGroupWrite exercises the split-lock
// protocol of the synchronous core: lookups proceed and stay consistent
// while group writes and replacements run on another goroutine.
func TestMVFIFOConcurrentLookupDuringGroupWrite(t *testing.T) {
	disk := newFakeDisk()
	m := newFaCE(t, 32, disk, func(c *MVFIFOConfig) {
		c.GroupSize = 8
		c.SecondChance = true
	})
	const pages = 24
	stop := make(chan struct{})
	var readErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := page.NewBuf()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := page.ID(rng.Intn(pages) + 1)
				found, _, err := m.Lookup(id, buf)
				if err != nil {
					readErr.Store(err)
					return
				}
				if found && (buf.ID() != id || buf.Payload()[0] != byte(id)) {
					readErr.Store(errLookupMismatch(id))
					return
				}
			}
		}(w)
	}
	for r := 0; r < 400; r++ {
		id := page.ID(r%pages + 1)
		p := makePage(id, page.LSN(r+1), byte(id))
		if err := m.StageIn(id, p, r%2 == 0, true); err != nil {
			t.Fatal(err)
		}
		if r%100 == 99 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := readErr.Load(); err != nil {
		t.Fatal(err)
	}
}

type errLookupMismatch page.ID

func (e errLookupMismatch) Error() string { return "lookup returned wrong page" }

// mvfifoVariants are the paper's three mvFIFO policies as newFaCE options,
// named as NewPolicy names them.
func mvfifoVariants() []struct {
	name string
	opt  func(*MVFIFOConfig)
} {
	return []struct {
		name string
		opt  func(*MVFIFOConfig)
	}{
		{"face", func(*MVFIFOConfig) {}},
		{"face+gr", func(c *MVFIFOConfig) { c.GroupSize = 4 }},
		{"face+gsc", func(c *MVFIFOConfig) { c.GroupSize = 4; c.SecondChance = true }},
	}
}

// TestMVFIFOConcurrentStress hammers StageIn, Lookup and Checkpoint from
// many goroutines (run it under -race) and then checks that the newest
// version of every dirty page survived in the cache or on disk.
func TestMVFIFOConcurrentStress(t *testing.T) {
	for _, v := range mvfifoVariants() {
		t.Run(v.name, func(t *testing.T) {
			disk := newFakeDisk()
			m := newFaCE(t, 64, disk, v.opt)

			const (
				workers = 4
				pages   = 40
				rounds  = 150
			)
			// Each stager owns the pages congruent to its number, as the
			// buffer pool's busy latch gives every page one evictor at a
			// time (StageIn's contract), so the versions of a page are
			// staged in LSN order.
			var latest [pages + 1]atomic.Int64 // page id -> newest staged LSN
			var wg sync.WaitGroup
			errs := make(chan error, workers*2+1)

			var lsnSource atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for r := 0; r < rounds; r++ {
						id := page.ID(rng.Intn(pages/workers)*workers + w + 1)
						lsn := lsnSource.Add(1)
						p := makePage(id, page.LSN(lsn), byte(id))
						latest[id].Store(lsn)
						if err := m.StageIn(id, p, true, true); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					buf := page.NewBuf()
					for r := 0; r < rounds; r++ {
						id := page.ID(rng.Intn(pages) + 1)
						found, _, err := m.Lookup(id, buf)
						if err != nil {
							errs <- err
							return
						}
						if found && (buf.ID() != id || buf.Payload()[0] != byte(id)) {
							errs <- errLookupMismatch(id)
							return
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 10; r++ {
					if err := m.Checkpoint(); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}

			if err := m.FlushAll(); err != nil {
				t.Fatal(err)
			}
			buf := page.NewBuf()
			for id := page.ID(1); id <= pages; id++ {
				want := page.LSN(latest[id].Load())
				if want == 0 {
					continue
				}
				found, _, err := m.Lookup(id, buf)
				if err != nil {
					t.Fatal(err)
				}
				got := page.LSN(0)
				if found {
					got = buf.LSN()
				}
				if d, ok := disk.pages[id]; ok && d.LSN() > got {
					got = d.LSN()
				}
				if got != want {
					t.Fatalf("page %d: newest surviving LSN %d, last staged %d", id, got, want)
				}
			}
		})
	}
}

// tornDev silently drops all writes after the first budget page writes,
// simulating power loss in the middle of a write: a prefix of the pages
// reaches the medium, the rest never does.
type tornDev struct {
	device.Dev
	mu     sync.Mutex
	budget int
}

func (d *tornDev) WriteAt(blk int64, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.budget <= 0 {
		return nil
	}
	d.budget--
	//lint:allow facevet/nolockio test double: the torn-write budget must be apportioned atomically with the write it gates
	return d.Dev.WriteAt(blk, p)
}

func (d *tornDev) WriteRun(blk int64, pages [][]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, p := range pages {
		if d.budget <= 0 {
			return nil
		}
		d.budget--
		//lint:allow facevet/nolockio test double: the torn-write budget must be apportioned atomically with the writes it gates
		if err := d.Dev.WriteAt(blk+int64(i), p); err != nil {
			return err
		}
	}
	return nil
}

// TestMVFIFOCrashRecoverSeesNoTornFrames loses power part-way through a
// wave of stage-ins that recycles the frames of an earlier lap of the
// queue, then recovers a fresh manager on the same device.  The frames
// whose writes were lost still hold the earlier lap's images; recovery
// must tell them from current ones by their stamps, serve only whole
// frames at each page's newest version, and keep every page of the
// checkpointed first wave in the cache or on disk.
func TestMVFIFOCrashRecoverSeesNoTornFrames(t *testing.T) {
	for _, v := range mvfifoVariants() {
		t.Run(v.name, func(t *testing.T) {
			disk := newFakeDisk()
			inner := flashDev(256)
			cfg := MVFIFOConfig{Dev: inner, Frames: 32, SegmentEntries: 16, DiskWrite: disk.write}
			v.opt(&cfg)
			m, err := NewMVFIFO(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var newest [41]page.LSN
			stage := func(m *MVFIFO, id page.ID, lsn page.LSN) {
				t.Helper()
				p := makePage(id, lsn, byte(id))
				p.UpdateChecksum()
				if err := m.StageIn(id, p, true, true); err != nil {
					t.Fatal(err)
				}
				newest[id] = lsn
			}
			// A first wave of 56 stage-ins over 24 pages laps the 32-frame
			// queue; the checkpoint makes it persistent state worth
			// recovering.
			for i := 0; i < 56; i++ {
				stage(m, page.ID(i%24+1), page.LSN(i+1))
			}
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			// Second incarnation on a torn device: the writes of the next
			// wave stop landing after five pages.
			tornCfg := cfg
			tornCfg.Dev = &tornDev{Dev: inner, budget: 5}
			m2, err := NewMVFIFO(tornCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m2.Recover(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				stage(m2, page.ID(25+i), page.LSN(100+i))
			}

			// Third incarnation recovers from whatever reached the medium.
			m3, err := NewMVFIFO(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m3.Recover(); err != nil {
				t.Fatal(err)
			}
			// Pages of the lost tail may be missing — that is the crash
			// contract — but nothing torn or stale may be served.
			buf := page.NewBuf()
			for id := page.ID(1); id <= 40; id++ {
				found, _, err := m3.Lookup(id, buf)
				if err != nil {
					t.Fatal(err)
				}
				if !found {
					if id <= 24 {
						if d := disk.pages[id]; d == nil || d.LSN() != newest[id] {
							t.Fatalf("checkpointed page %d lost after crash", id)
						}
					}
					continue
				}
				if buf.ID() != id {
					t.Fatalf("page %d: recovered frame has id %d (torn write leaked)", id, buf.ID())
				}
				if err := buf.VerifyChecksum(); err != nil {
					t.Fatalf("page %d: recovered frame fails checksum: %v", id, err)
				}
				if buf.Payload()[0] != byte(id) || buf.LSN() != newest[id] {
					t.Fatalf("page %d: recovered frame has marker %d at LSN %d, want LSN %d",
						id, buf.Payload()[0], buf.LSN(), newest[id])
				}
			}
		})
	}
}

// failDev fails every write once armed.
type failDev struct {
	device.Dev
	armed atomic.Bool
}

var errFlashGone = errors.New("flash gone")

func (d *failDev) WriteAt(blk int64, p []byte) error {
	if d.armed.Load() {
		return errFlashGone
	}
	return d.Dev.WriteAt(blk, p)
}

func (d *failDev) WriteRun(blk int64, pages [][]byte) error {
	if d.armed.Load() {
		return errFlashGone
	}
	return d.Dev.WriteRun(blk, pages)
}

// TestMVFIFOFlashWriteErrorPropagates: a flash write that fails, whether
// it is a single frame or a replacement group, fails the StageIn that
// needed it, and the page it carried is never published to lookups.
func TestMVFIFOFlashWriteErrorPropagates(t *testing.T) {
	for _, v := range mvfifoVariants() {
		t.Run(v.name, func(t *testing.T) {
			disk := newFakeDisk()
			dev := &failDev{Dev: flashDev(16 + 64)}
			cfg := MVFIFOConfig{Dev: dev, Frames: 16, SegmentEntries: 16, DiskWrite: disk.write}
			v.opt(&cfg)
			m, err := NewMVFIFO(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Fill the queue so the failing stage-in has to make room.
			for id := page.ID(1); id <= 16; id++ {
				if err := m.StageIn(id, makePage(id, page.LSN(id), byte(id)), true, true); err != nil {
					t.Fatal(err)
				}
			}
			dev.armed.Store(true)
			err = m.StageIn(17, makePage(17, 17, 17), true, true)
			if !errors.Is(err, errFlashGone) {
				t.Fatalf("StageIn on a failing flash device returned %v, want %v", err, errFlashGone)
			}
			if m.Contains(17) {
				t.Fatal("page of a failed flash write reported as cached")
			}
			if found, _, err := m.Lookup(17, page.NewBuf()); found || err != nil {
				t.Fatalf("Lookup of a page whose flash write failed = %v, %v", found, err)
			}
		})
	}
}

// TestMVFIFONewestVersionReachesDisk stages many versions of a few pages
// through a small queue, with lookups setting reference bits so Group
// Second Chance re-enqueues survivors next to newer versions.  The disk
// must never receive an older version of a page after a newer one, and
// after FlushAll it must hold the newest version of every page.
func TestMVFIFONewestVersionReachesDisk(t *testing.T) {
	for _, v := range mvfifoVariants() {
		t.Run(v.name, func(t *testing.T) {
			disk := newFakeDisk()
			var backwards error
			write := func(id page.ID, data page.Buf) error {
				if old, ok := disk.pages[id]; ok && old.LSN() > data.LSN() && backwards == nil {
					backwards = fmt.Errorf("page %d: disk went from LSN %d back to %d", id, old.LSN(), data.LSN())
				}
				return disk.write(id, data)
			}
			m := newFaCE(t, 16, disk, v.opt, func(c *MVFIFOConfig) { c.DiskWrite = write })

			const pages = 24
			var newest [pages + 1]page.LSN
			rng := rand.New(rand.NewSource(1))
			buf := page.NewBuf()
			for i := 1; i <= 600; i++ {
				id := page.ID(rng.Intn(pages) + 1)
				if rng.Intn(3) == 0 {
					if found, _, err := m.Lookup(id, buf); err != nil {
						t.Fatal(err)
					} else if found && buf.LSN() != newest[id] {
						t.Fatalf("Lookup(%d) served LSN %d, newest staged %d", id, buf.LSN(), newest[id])
					}
					continue
				}
				newest[id] = page.LSN(i)
				if err := m.StageIn(id, makePage(id, page.LSN(i), byte(id)), true, true); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if backwards != nil {
				t.Fatal(backwards)
			}
			for id := page.ID(1); id <= pages; id++ {
				if newest[id] == 0 {
					continue
				}
				if d := disk.pages[id]; d == nil || d.LSN() != newest[id] {
					t.Fatalf("page %d: disk holds %v after FlushAll, want LSN %d", id, d, newest[id])
				}
			}
		})
	}
}
