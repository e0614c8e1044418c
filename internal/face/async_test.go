package face

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// gateDev wraps a device and blocks page-frame writes until released, so
// tests can hold a group write in flight deterministically.
type gateDev struct {
	device.Dev
	mu     sync.Mutex
	gated  bool
	gate   chan struct{}
	writes atomic.Int64
}

func newGateDev(inner device.Dev) *gateDev {
	return &gateDev{Dev: inner, gate: make(chan struct{})}
}

func (g *gateDev) closeGate() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.gated {
		g.gated = true
		g.gate = make(chan struct{})
	}
}

func (g *gateDev) openGate() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gated {
		g.gated = false
		close(g.gate)
	}
}

func (g *gateDev) wait() {
	g.mu.Lock()
	ch := g.gate
	gated := g.gated
	g.mu.Unlock()
	if gated {
		<-ch
	}
}

func (g *gateDev) WriteAt(blk int64, p []byte) error {
	g.wait()
	g.writes.Add(1)
	return g.Dev.WriteAt(blk, p)
}

func (g *gateDev) WriteRun(blk int64, pages [][]byte) error {
	g.wait()
	g.writes.Add(int64(len(pages)))
	return g.Dev.WriteRun(blk, pages)
}

// tornDev silently drops all writes after the first n page writes,
// simulating power loss in the middle of a group write: a prefix of the
// group reaches the medium, the rest never does.
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

func newAsyncGSC(t *testing.T, frames int, disk *fakeDisk, cfg AsyncConfig, opts ...func(*MVFIFOConfig)) *Async {
	t.Helper()
	core := newFaCE(t, frames, disk, append([]func(*MVFIFOConfig){func(c *MVFIFOConfig) {
		c.GroupSize = 4
		c.SecondChance = true
	}}, opts...)...)
	a, err := NewAsync(core, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Abort() })
	return a
}

func TestAsyncRequiresMVFIFO(t *testing.T) {
	disk := newFakeDisk()
	lc, err := NewLC(LCConfig{Dev: flashDev(64), Frames: 8, DiskWrite: disk.write})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAsync(lc, AsyncConfig{}); err == nil {
		t.Fatal("NewAsync accepted a non-mvFIFO core")
	}
}

func TestAsyncStageLookupDrain(t *testing.T) {
	disk := newFakeDisk()
	a := newAsyncGSC(t, 16, disk, AsyncConfig{Depth: 8})

	for i := 1; i <= 6; i++ {
		p := makePage(page.ID(i), page.LSN(i), byte(i))
		if err := a.StageIn(page.ID(i), p, true, true); err != nil {
			t.Fatal(err)
		}
	}
	// Every staged page is immediately visible, wherever it currently is.
	buf := page.NewBuf()
	for i := 1; i <= 6; i++ {
		found, dirty, err := a.Lookup(page.ID(i), buf)
		if err != nil || !found || !dirty {
			t.Fatalf("page %d: found=%v dirty=%v err=%v", i, found, dirty, err)
		}
		if buf.ID() != page.ID(i) || buf.Payload()[0] != byte(i) {
			t.Fatalf("page %d: wrong image (id=%d marker=%d)", i, buf.ID(), buf.Payload()[0])
		}
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// After a full drain the dirty pages are durable on disk.
	for i := 1; i <= 6; i++ {
		if _, ok := disk.pages[page.ID(i)]; !ok {
			t.Fatalf("page %d not on disk after FlushAll", i)
		}
	}
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := a.StageIn(7, makePage(7, 7, 7), false, false); err == nil {
		t.Fatal("StageIn accepted after Shutdown")
	}
}

// TestAsyncStageInDoesNotBlockOnFlash is the core decoupling property: a
// DRAM eviction returns while the flash group write is still in flight.
func TestAsyncStageInDoesNotBlockOnFlash(t *testing.T) {
	disk := newFakeDisk()
	gate := newGateDev(flashDev(128))
	core, err := NewMVFIFO(MVFIFOConfig{
		Dev: gate, Frames: 32, GroupSize: 4, SecondChance: true,
		SegmentEntries: 16, DiskWrite: disk.write,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAsync(core, AsyncConfig{Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Abort()

	gate.closeGate()
	done := make(chan error, 8)
	for i := 1; i <= 8; i++ {
		p := makePage(page.ID(i), page.LSN(i), byte(i))
		go func(id page.ID, p page.Buf) {
			done <- a.StageIn(id, p, true, true)
		}(page.ID(i), p)
	}
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("StageIn blocked on the gated flash device")
		}
	}
	// Lookups are served from the staging ring while the group write hangs.
	buf := page.NewBuf()
	found, _, err := a.Lookup(3, buf)
	if err != nil || !found || buf.Payload()[0] != 3 {
		t.Fatalf("ring lookup: found=%v err=%v marker=%d", found, err, buf.Payload()[0])
	}
	gate.openGate()
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if gate.writes.Load() == 0 {
		t.Fatal("no flash writes observed")
	}
}

// TestAsyncConcurrentStress hammers Lookup/StageIn/Checkpoint from many
// goroutines under -race and then verifies that the newest version of
// every dirty page survived somewhere durable.
func TestAsyncConcurrentStress(t *testing.T) {
	disk := newFakeDisk()
	a := newAsyncGSC(t, 64, disk, AsyncConfig{Depth: 32, Writers: 2})

	const (
		workers = 4
		pages   = 40
		rounds  = 150
	)
	// Each stager owns the pages congruent to its number, as the buffer
	// pool's busy latch gives every page one evictor at a time (StageIn's
	// contract), so the versions of a page are staged in LSN order.
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
				if err := a.StageIn(id, p, true, true); err != nil {
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
				found, _, err := a.Lookup(id, buf)
				if err != nil {
					errs <- err
					return
				}
				if found && buf.ID() != id {
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
			if err := a.Checkpoint(); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Every page's last staged version must now be readable from the cache
	// or from disk.
	buf := page.NewBuf()
	for id := page.ID(1); id <= pages; id++ {
		want := page.LSN(latest[id].Load())
		if want == 0 {
			continue
		}
		found, _, err := a.Lookup(id, buf)
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
}

type errLookupMismatch page.ID

func (e errLookupMismatch) Error() string { return "lookup returned wrong page" }

// TestAsyncCrashRecoverSeesNoTornGroups aborts the pipeline while a group
// write is being torn by simulated power loss, then recovers a fresh
// manager on the same device: the recovered directory must contain only
// whole, correctly stamped frames, and every recovered page must be
// internally consistent.
func TestAsyncCrashRecoverSeesNoTornGroups(t *testing.T) {
	disk := newFakeDisk()
	inner := flashDev(256)
	core, err := NewMVFIFO(MVFIFOConfig{
		Dev: inner, Frames: 64, GroupSize: 8,
		SegmentEntries: 16, DiskWrite: disk.write,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAsync(core, AsyncConfig{Depth: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Stage a first wave and checkpoint it so the metadata directory holds
	// persistent state worth recovering.
	for i := 1; i <= 24; i++ {
		p := makePage(page.ID(i), page.LSN(i), byte(i))
		p.UpdateChecksum()
		if err := a.StageIn(page.ID(i), p, true, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a.Abort()

	// Second incarnation on a torn device: half of the next group write is
	// lost mid-run.
	torn := &tornDev{Dev: inner, budget: 5}
	core2, err := NewMVFIFO(MVFIFOConfig{
		Dev: torn, Frames: 64, GroupSize: 8,
		SegmentEntries: 16, DiskWrite: disk.write,
	})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAsync(core2, AsyncConfig{Depth: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 25; i <= 40; i++ {
		p := makePage(page.ID(i), page.LSN(i), byte(i))
		p.UpdateChecksum()
		if err := a2.StageIn(page.ID(i), p, true, true); err != nil {
			t.Fatal(err)
		}
	}
	// Crash while the torn writes are (not) landing.
	a2.Abort()

	// Third incarnation recovers from whatever reached the medium.
	core3, err := NewMVFIFO(MVFIFOConfig{
		Dev: inner, Frames: 64, GroupSize: 8,
		SegmentEntries: 16, DiskWrite: disk.write,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core3.Recover(); err != nil {
		t.Fatal(err)
	}
	// Every page the recovered directory serves must be whole: right
	// header, valid checksum, plausible content.  Pages from the torn tail
	// may be missing — that is the crash contract — but nothing torn may
	// be served.
	buf := page.NewBuf()
	for id := page.ID(1); id <= 40; id++ {
		found, _, err := core3.Lookup(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			continue
		}
		if buf.ID() != id {
			t.Fatalf("page %d: recovered frame has id %d (torn group leaked)", id, buf.ID())
		}
		if err := buf.VerifyChecksum(); err != nil {
			t.Fatalf("page %d: recovered frame fails checksum: %v", id, err)
		}
		if buf.Payload()[0] != byte(id) {
			t.Fatalf("page %d: recovered frame has marker %d", id, buf.Payload()[0])
		}
	}
	// The checkpointed first wave must have survived in full (flash or
	// disk).
	for id := page.ID(1); id <= 24; id++ {
		found, _, err := core3.Lookup(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			if _, ok := disk.pages[id]; !ok {
				t.Fatalf("checkpointed page %d lost after crash", id)
			}
		}
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
