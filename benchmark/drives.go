package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/reprolab/face"
	"github.com/reprolab/face/internal/btree"
	"github.com/reprolab/face/internal/buffer"
	"github.com/reprolab/face/internal/device/filedev"
	"github.com/reprolab/face/internal/engine"
	intface "github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/kv"
	"github.com/reprolab/face/internal/lock"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/page"
	"github.com/reprolab/face/internal/server/wire"
	"github.com/reprolab/face/internal/wal"
)

// A layer drive times calls into one layer's public functions from
// outside, with nothing else running.  The README lists the functions each
// drive calls.

// cost is the mean price of one call.
type cost struct{ ns, allocs, bytes float64 }

// drive calls fn n times and reports the mean time, heap allocations and
// heap bytes per call.
func drive(n int, fn func()) cost {
	n = int(float64(n)*sz.drives) + 1
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return cost{
		ns:     float64(d) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// layerDrives runs every drive that needs no live workload.  tmp holds the
// files of the file-backed ones; keys sizes the index whose height is
// reported.
func layerDrives(out map[string]float64, tmp string, keys int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("layer drive: %v", p)
		}
	}()
	ctx := context.Background()
	buf := page.NewBuf()

	// device: one block written and read back on the simulated MLC SSD.
	sim := face.NewSSD("drive-ssd", 1024)
	i := 0
	out["device.sim_rw_ns"] = drive(20000, func() {
		blk := int64(i % 1024)
		i++
		must(sim.WriteAt(blk, buf))
		must(sim.ReadAt(blk, buf))
	}).ns

	// filedev: one block written and flushed, fsync on.
	dir, err := os.MkdirTemp(tmp, "drive-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fd, err := filedev.Open("drive", filepath.Join(dir, "dev"), 4096, filedev.Options{})
	if err != nil {
		return err
	}
	defer fd.Close()
	out["filedev.write_sync_us"] = drive(200, func() {
		must(fd.WriteAt(int64(i%4096), buf))
		i++
		must(fd.Sync())
	}).ns / 1e3

	// buffer: Get+Unpin of a resident page, and of pages cycling through
	// a pool a quarter their number (every Get misses and evicts).
	pool, err := buffer.New(256,
		func(id page.ID, b page.Buf) (bool, error) { b.Init(id, page.TypeHeap); return false, nil },
		func(buffer.Victim) error { return nil })
	if err != nil {
		return err
	}
	getUnpin := func(id page.ID) {
		_, err := pool.Get(id)
		must(err)
		must(pool.Unpin(id))
	}
	getUnpin(1)
	hit := drive(200000, func() { getUnpin(1) })
	out["buffer.get_hit_ns"] = hit.ns
	miss := drive(50000, func() { i++; getUnpin(page.ID(2 + i%1024)) })
	out["buffer.get_miss_ns"] = miss.ns
	out["buffer.get_allocs"] = miss.allocs

	// face: StageIn of dirty pages through a face+gsc cache, then Lookup of
	// cached ones.
	const frames = 1024
	flash := face.NewSSD("drive-flash", intface.FlashDeviceBlocks(frames, 0)+intface.FlashDeviceSlack)
	cache, err := face.NewPolicy(face.PolicyFaCEGSC, face.PolicyParams{
		Dev: flash, Frames: frames,
		DiskWrite: func(page.ID, page.Buf) error { return nil },
	})
	if err != nil {
		return err
	}
	stage := drive(20000, func() {
		i++
		id := page.ID(1 + i%(4*frames))
		buf.Init(id, page.TypeHeap)
		must(cache.StageIn(id, buf, true, true))
	})
	out["face.stagein_ns"] = stage.ns
	out["face.stagein_allocs"] = stage.allocs
	var cached []page.ID
	for id := page.ID(1); id <= 4*frames; id++ {
		if cache.Contains(id) {
			cached = append(cached, id)
		}
	}
	if len(cached) == 0 {
		return fmt.Errorf("face drive: nothing cached after staging")
	}
	out["face.lookup_hit_ns"] = drive(20000, func() {
		i++
		found, _, err := cache.Lookup(cached[i%len(cached)], buf)
		must(err)
		if !found {
			panic("face drive: cached page not found")
		}
	}).ns

	// wal: Append of a 100-byte update record; Append+Force on a simulated
	// disk and on a file with fsync.
	rec := func() *wal.Record {
		return &wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 7, Offset: 64,
			Before: make([]byte, 50), After: make([]byte, 50)}
	}
	simLog, err := wal.Open(face.NewDisk("drive-log", 1<<16))
	if err != nil {
		return err
	}
	app := drive(50000, func() { _, err := simLog.Append(rec()); must(err) })
	out["wal.append_ns"] = app.ns
	out["wal.append_allocs"] = app.allocs
	out["wal.force_sim_ns"] = drive(5000, func() {
		lsn, err := simLog.Append(rec())
		must(err)
		must(simLog.Force(lsn + 1))
	}).ns
	must(simLog.Close())
	logFile, err := filedev.Open("drive-log", filepath.Join(dir, "log"), 1<<16, filedev.Options{})
	if err != nil {
		return err
	}
	defer logFile.Close()
	fileLog, err := wal.Open(logFile)
	if err != nil {
		return err
	}
	out["wal.force_file_us"] = drive(200, func() {
		lsn, err := fileLog.Append(rec())
		must(err)
		must(fileLog.Force(lsn + 1))
	}).ns / 1e3
	must(fileLog.Close())

	// lock: an uncontended exclusive Acquire and ReleaseAll.
	locks := lock.New()
	out["lock.acquire_release_ns"] = drive(200000, func() {
		must(locks.Acquire(ctx, 1, 42, lock.Exclusive))
		locks.ReleaseAll(1)
	}).ns

	// engine: View reading one resident page, Update changing eight bytes
	// of it, on simulated devices with the default scheduler.
	db, err := face.Open(face.WithDevices(face.NewDiskArray("drive-data", 8, 1<<12), face.NewDisk("drive-elog", 1<<16)))
	if err != nil {
		return err
	}
	defer db.Crash()
	var id page.ID
	must(db.Update(ctx, func(tx *face.Tx) error {
		id, err = tx.Alloc(face.TypeHeap)
		return err
	}))
	view := drive(50000, func() {
		must(db.View(ctx, func(tx *face.Tx) error {
			return tx.Read(id, func(page.Buf) error { return nil })
		}))
	})
	out["engine.view_ns"], out["engine.view_bytes"] = view.ns, view.bytes
	upd := drive(20000, func() {
		must(db.Update(ctx, func(tx *face.Tx) error {
			return tx.Modify(id, func(b page.Buf) error { b.Payload()[0]++; return nil })
		}))
	})
	out["engine.update_ns"], out["engine.update_bytes"], out["engine.update_allocs"] = upd.ns, upd.bytes, upd.allocs

	// btree: height of an index holding as many keys as the workload's
	// largest one.
	var tree *btree.Tree
	must(db.Update(ctx, func(tx *face.Tx) error {
		tree, err = btree.Create(tx, "drive")
		return err
	}))
	for base := 0; base < keys; base += 1000 {
		must(db.Update(ctx, func(tx *face.Tx) error {
			for k := base; k < base+1000 && k < keys; k++ {
				if err := tree.Insert(tx, uint64(k), page.RID{Page: id}); err != nil {
					return err
				}
			}
			return nil
		}))
	}
	must(db.View(ctx, func(tx *face.Tx) error {
		h, err := tree.Height(tx)
		out["btree.height"] = float64(h)
		return err
	}))

	// wire: one SET request encoded and decoded.
	var frame bytes.Buffer
	rd := bufio.NewReader(&frame)
	req := &wire.Request{Op: wire.OpSet, Seq: 1, NS: kvNamespace, Key: 42, Value: make([]byte, kvValueBytes)}
	codec := drive(100000, func() {
		must(wire.WriteRequest(&frame, req))
		_, err := wire.ReadRequest(rd)
		must(err)
	})
	out["wire.codec_ns"], out["wire.codec_allocs"] = codec.ns, codec.allocs

	// obs: one histogram observation.
	h := obs.NewHistogram()
	out["obs.observe_ns"] = drive(1000000, func() { h.Observe(37 * time.Microsecond) }).ns
	return nil
}

// kvDrives runs, against the restarted server of a traced repetition, the
// drives that need it: the empty round trip, and the workload's own kind
// of requests executed through kv inside View/Update with no server.
func kvDrives(r *kvRep) error {
	const n = 300
	ctx := context.Background()
	out := r.res.layer
	c, err := r.env.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	ping := make([]time.Duration, 0, 2000)
	for i := 0; i < cap(ping); i++ {
		start := time.Now()
		if err := c.Ping(); err != nil {
			return err
		}
		ping = append(ping, time.Since(start))
	}
	out["client.ping_rtt_us"] = us(summarize(ping).p50)

	ns, err := r.env.srv.Store().Namespace(kvNamespace)
	if err != nil {
		return err
	}
	db := r.env.db
	rng := rand.New(rand.NewSource(r.cfg.seed + 5))
	timed := func(count int, op func(i int) error) (time.Duration, error) {
		lat := make([]time.Duration, 0, count)
		for i := 0; i < count; i++ {
			start := time.Now()
			if err := op(i); err != nil {
				return 0, err
			}
			lat = append(lat, time.Since(start))
		}
		return summarize(lat).p50, nil
	}
	get, err := timed(10*n, func(int) error {
		return db.View(ctx, func(tx *engine.Tx) error {
			_, _, err := ns.Get(tx, uint64(rng.Intn(sz.kvKeys)))
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("kv get drive: %w", err)
	}
	set := func(key uint64) error {
		p := kv.NewPending()
		err := db.Update(ctx, func(tx *engine.Tx) error { return ns.Set(tx, p, key, makeValue(key, 9, key)) })
		if err == nil {
			p.Apply()
		}
		return err
	}
	overwrite, err := timed(n, func(int) error { return set(uint64(rng.Intn(sz.kvKeys))) })
	if err != nil {
		return fmt.Errorf("kv set drive: %w", err)
	}
	insert, err := timed(n, func(i int) error { return set(1<<40 + uint64(i)) })
	if err != nil {
		return fmt.Errorf("kv insert drive: %w", err)
	}
	out["kv.get_direct_us"], out["kv.set_direct_us"], out["kv.insert_direct_us"] = us(get), us(overwrite), us(insert)
	out["server.overhead_us"] = us(r.warmGet.p50) - us(get)
	return nil
}

// spanLatencies summarises the file-device spans of the traced repetition
// whose name is one of names.
func spanLatencies(spans []span, names ...string) latSummary {
	var d []time.Duration
	for _, s := range spans {
		for _, n := range names {
			if s.Layer == "filedev" && s.Name == n {
				d = append(d, time.Duration(s.End-s.Start))
			}
		}
	}
	return summarize(d)
}

// deviceSpanMetrics reports the file devices' latencies as the tracedev
// wrappers saw them (all zero on the simulated devices of tpcc-miss, whose
// transfers take no wall-clock time worth the name).
func deviceSpanMetrics(out map[string]float64, spans []span) {
	sync := spanLatencies(spans, "log.sync")
	out["filedev.log.sync_p50_us"] = us(sync.p50)
	out["filedev.log.sync_p99_us"] = us(sync.p99)
	out["filedev.read_p50_us"] = us(spanLatencies(spans, "data.read", "flash.read", "log.read").p50)
	out["filedev.write_p50_us"] = us(spanLatencies(spans, "data.write", "flash.write", "log.write").p50)
}
