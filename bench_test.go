package face

// Benchmarks: one testing.B benchmark per table and figure of the paper's
// evaluation, plus micro-benchmarks of the core cache managers.  They run
// at the QuickOptions scale so `go test -bench=. -benchmem` completes in a
// few minutes; the facebench command runs the same experiments at the
// larger default scale.

import (
	"context"
	"sync"
	"testing"

	"github.com/reprolab/face/internal/bench"
	"github.com/reprolab/face/internal/buffer"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
	facecache "github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/page"
)

var (
	goldenOnce sync.Once
	goldenDB   *bench.Golden
	goldenErr  error
)

func benchGolden(b *testing.B) *bench.Golden {
	b.Helper()
	goldenOnce.Do(func() {
		goldenDB, goldenErr = bench.BuildGolden(bench.QuickOptions())
	})
	if goldenErr != nil {
		b.Fatal(goldenErr)
	}
	return goldenDB
}

// BenchmarkTable1DeviceCharacteristics regenerates Table 1 (device price
// and performance characteristics).
func BenchmarkTable1DeviceCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1DeviceCharacteristics()
		if len(rows) != 5 {
			b.Fatal("unexpected Table 1 size")
		}
	}
}

// BenchmarkTable3HitAndWriteReduction regenerates Table 3 (flash cache hit
// ratio and write reduction vs cache size).
func BenchmarkTable3HitAndWriteReduction(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Table3HitAndWriteReduction(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4UtilizationAndIOPS regenerates Table 4 (flash device
// utilization and I/O throughput vs cache size).
func BenchmarkTable4UtilizationAndIOPS(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Table4UtilizationAndIOPS(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4ThroughputMLC regenerates Figure 4(a): throughput vs
// cache size on the MLC SSD, including HDD-only and SSD-only references.
func BenchmarkFigure4ThroughputMLC(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Figure4Throughput(g.Options().MLCProfile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4ThroughputSLC regenerates Figure 4(b): throughput vs
// cache size on the SLC SSD.
func BenchmarkFigure4ThroughputSLC(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Figure4Throughput(g.Options().SLCProfile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5DRAMvsFlash regenerates Table 5 (equal-cost DRAM vs flash
// increments).
func BenchmarkTable5DRAMvsFlash(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Table5DRAMvsFlash(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5DiskScaling regenerates Figure 5 (throughput vs number of
// RAID-0 disks).
func BenchmarkFigure5DiskScaling(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Figure5DiskScaling(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6RecoveryTime regenerates Table 6 (restart time after a
// crash vs checkpoint interval).
func BenchmarkTable6RecoveryTime(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Table6RecoveryTime(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6PostRestartThroughput regenerates Figure 6 (throughput
// timeline after restart).
func BenchmarkFigure6PostRestartThroughput(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Figure6PostRestartThroughput(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGroupSize measures the design-choice ablation for the
// replacement group size (Section 3.3).
func BenchmarkAblationGroupSize(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.AblationGroupSize(0.10, []int{1, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAsyncIO keeps the sync-vs-async pipeline comparison in
// the benchmark smoke run so the ablation code cannot rot.
func BenchmarkAblationAsyncIO(b *testing.B) {
	g := benchGolden(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.AblationAsyncIO(0.10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the cache managers -------------------------------

func stagePages(b *testing.B, ext facecache.Extension, n int) {
	b.Helper()
	img := page.NewBuf()
	for i := 0; i < n; i++ {
		id := page.ID(i%4096 + 1)
		img.Init(id, page.TypeHeap)
		img.SetLSN(page.LSN(i + 1))
		if err := ext.StageIn(id, img, true, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMVFIFOStageIn measures the FaCE mvFIFO stage-in path (sequential
// flash writes).
func BenchmarkMVFIFOStageIn(b *testing.B) {
	dev := device.New("flash", device.ProfileSamsung470, 4096)
	disk := device.NewArray("disk", device.ProfileCheetah15K, 8, 1<<16)
	cache, err := facecache.NewMVFIFO(facecache.MVFIFOConfig{
		Dev: dev, Frames: 2048, GroupSize: 64, SecondChance: true,
		DiskWrite: func(id page.ID, data page.Buf) error { return disk.WriteAt(int64(id), data) },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	stagePages(b, cache, b.N)
}

// BenchmarkPoolGetMiss measures a DRAM buffer miss that evicts: Get and
// Unpin of pages cycling through a pool a quarter their number, with
// callbacks that do nothing a device would.
func BenchmarkPoolGetMiss(b *testing.B) {
	pool := missPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getUnpin(b, pool, page.ID(1+i%1024))
	}
}

// missPool returns a full 256-page pool whose every Get of pages 1..1024 in
// turn misses and evicts.
func missPool(tb testing.TB) *buffer.Pool {
	tb.Helper()
	pool, err := buffer.New(256,
		func(id page.ID, buf page.Buf) (bool, error) { buf.Init(id, page.TypeHeap); return false, nil },
		func(buffer.Victim) error { return nil })
	if err != nil {
		tb.Fatal(err)
	}
	for id := page.ID(1); id <= 1024; id++ {
		getUnpin(tb, pool, id)
	}
	return pool
}

func getUnpin(tb testing.TB, pool *buffer.Pool, id page.ID) {
	if _, err := pool.Get(id); err != nil {
		tb.Fatal(err)
	}
	if err := pool.Unpin(id); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkLCStageIn measures the LC baseline stage-in path (random flash
// writes).
func BenchmarkLCStageIn(b *testing.B) {
	dev := device.New("flash", device.ProfileSamsung470, 4096)
	disk := device.NewArray("disk", device.ProfileCheetah15K, 8, 1<<16)
	cache, err := facecache.NewLC(facecache.LCConfig{
		Dev: dev, Frames: 2048,
		DiskWrite: func(id page.ID, data page.Buf) error { return disk.WriteAt(int64(id), data) },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	stagePages(b, cache, b.N)
}

// BenchmarkConcurrentViews measures parallel read-only transactions
// through the public View API: readers share the scheduler's read lock and
// the latched buffer pool.
func BenchmarkConcurrentViews(b *testing.B) {
	db, err := Open(
		WithDevices(NewDiskArray("data", 8, 1<<16), NewDisk("log", 1<<18)),
		WithFlashDevice(NewSSD("flash", 4096)),
		WithPolicy(PolicyFaCEGSC),
		WithBufferPages(128),
		WithFlashFrames(1024),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	var ids []PageID
	err = db.Update(ctx, func(tx *Tx) error {
		for i := 0; i < 2048; i++ {
			id, err := tx.Alloc(TypeHeap)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			id := ids[i%len(ids)]
			err := db.View(ctx, func(tx *Tx) error {
				return tx.Read(id, func(buf PageBuf) error { return nil })
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEngineTransaction measures the end-to-end cost of a small
// read-modify-write transaction through the engine with a FaCE cache.
func BenchmarkEngineTransaction(b *testing.B) {
	db, err := engine.Open(engine.Config{
		DataDev:     device.NewArray("data", device.ProfileCheetah15K, 8, 1<<16),
		LogDev:      device.New("log", device.ProfileCheetah15K, 1<<18),
		FlashDev:    device.New("flash", device.ProfileSamsung470, 4096),
		BufferPages: 128,
		Policy:      engine.PolicyFaCEGSC,
		FlashFrames: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	var ids []page.ID
	if err := db.Update(ctx, func(tx *engine.Tx) error {
		for i := 0; i < 2048; i++ {
			id, err := tx.Alloc(page.TypeHeap)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		if err := db.Update(ctx, func(tx *engine.Tx) error {
			return tx.Modify(id, func(buf page.Buf) error {
				buf.Payload()[0]++
				return nil
			})
		}); err != nil {
			b.Fatal(err)
		}
	}
}
