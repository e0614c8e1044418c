package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/face"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/device/filedev"
	"github.com/reprolab/face/internal/engine"
	intface "github.com/reprolab/face/internal/face"
	"github.com/reprolab/face/internal/obs"
	"github.com/reprolab/face/internal/server"
	"github.com/reprolab/face/internal/server/client"
)

// Served-workload sizes.  The preload (sz.kvKeys, about 1 100 pages) exceeds the DRAM
// buffer and fits the flash cache, so roughly half the page reads of a
// uniform GET go buffer miss -> flash hit -> file read.  Everything else is
// what cmd/faced does by default: page locks, 8 writers, 4 096 flash
// frames, fsync on.
const (
	kvNamespace   = "bench"
	kvValueBytes  = 128
	kvBatch       = 500
	kvBufferPages = 512
	kvFlashFrames = 4096
	kvClients     = 2 // connections, and closed-loop clients of the write workloads
	// kvGetCallers closed-loop callers share each connection on kv-get (and
	// in every warm-up).  With one caller per connection both cores idle
	// between requests, and on a virtual machine the cost of waking them
	// swings the result by a fifth from minute to minute; sixteen callers
	// keep the cores busy, which is also what the read path is for.
	kvGetCallers = 16
	kvTimeout    = 2 * time.Second
)

// makeValue builds the value of (key, writer, seq): the sequence and the
// writer in clear, then a stream only that triple produces, so any value
// read back can be checked without knowing which write it came from.
func makeValue(key uint64, writer uint8, seq uint64) []byte {
	v := make([]byte, kvValueBytes)
	binary.LittleEndian.PutUint64(v, seq)
	v[8] = writer
	x := key*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9 ^ uint64(writer)<<56 | 1
	for i := 9; i < len(v); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}

// checkValue reports the writer and sequence a stored value claims and
// whether the value is the one that triple produces.
func checkValue(key uint64, v []byte) (writer uint8, seq uint64, ok bool) {
	if len(v) != kvValueBytes {
		return 0, 0, false
	}
	seq, writer = binary.LittleEndian.Uint64(v), v[8]
	return writer, seq, string(makeValue(key, writer, seq)) == string(v)
}

// kvEnv is one running server over one database directory.
type kvEnv struct {
	dir              string
	set              *filedev.Set
	data, log, flash device.Dev // what the engine was given (wrapped or not)
	db               *face.DB
	srv              *server.Server
	ln               net.Listener
	served           chan error
	addr             string
	stopped          bool
}

// openKV opens the directory's files and serves them the way cmd/faced
// does.  wrap, when not nil, is applied to each device before the engine
// sees it (the traced pass and the durability phase); the untraced pass
// hands the engine the file devices themselves.
func openKV(dir string, recover bool, wrap func(dev *filedev.Device) device.Dev) (*kvEnv, error) {
	set, err := filedev.OpenSet(dir, filedev.SetConfig{
		FlashBlocks: intface.FlashDeviceBlocks(kvFlashFrames, 0) + intface.FlashDeviceSlack,
		Workers:     engine.DefaultFileWorkers,
	})
	if err != nil {
		return nil, err
	}
	e := &kvEnv{dir: dir, set: set, data: set.Data, log: set.Log, flash: set.Flash}
	if wrap != nil {
		e.data, e.log, e.flash = wrap(set.Data), wrap(set.Log), wrap(set.Flash)
	}
	reg := obs.NewRegistry()
	opts := []face.Option{
		face.WithDevices(e.data, e.log),
		face.WithFlashDevice(e.flash),
		face.WithPolicy(face.PolicyFaCEGSC),
		face.WithFlashFrames(kvFlashFrames),
		face.WithBufferPages(kvBufferPages),
		face.WithLockManager(),
		face.WithMaxWriters(server.DefaultWriters),
		face.WithMetricsRegistry(reg),
	}
	if recover {
		opts = append(opts, face.WithRecovery())
	}
	if e.db, err = face.Open(opts...); err != nil {
		set.Close()
		return nil, err
	}
	e.srv, err = server.New(e.db, server.Config{Writers: server.DefaultWriters, Obs: reg, Tracer: e.db.Tracer()})
	if err == nil {
		e.ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		e.db.Crash()
		set.Close()
		return nil, err
	}
	e.addr = e.ln.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(e.ln) }()
	return e, nil
}

// stop drains the server and then either crashes the engine (volatile
// state lost, files as the operating system holds them) or closes it.  A
// second call does nothing.
func (e *kvEnv) stop(crash bool) error {
	if e.stopped {
		return nil
	}
	e.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	<-e.served
	if crash {
		e.db.Crash()
	} else if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	if cerr := e.set.Close(); err == nil {
		err = cerr
	}
	return err
}

func (e *kvEnv) dial() (*client.Client, error) {
	return client.Dial(e.addr, client.Options{Conns: 1, RequestTimeout: kvTimeout})
}

// dialAll opens one single-connection client per closed-loop client.
func (e *kvEnv) dialAll(n int) ([]*client.Client, func(), error) {
	var cs []*client.Client
	closeAll := func() {
		for _, c := range cs {
			c.Close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := e.dial()
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		cs = append(cs, c)
	}
	return cs, closeAll, nil
}

// maxBusyRetries bounds the client-side retry of one operation.
const maxBusyRetries = 1000

// retryBusy runs op until it returns anything but the retryable BUSY,
// backing off between attempts: 100 µs doubling to 3.2 ms, each wait
// jittered over its upper half so two victims do not collide again in
// step.  The retries and their waits are inside the caller's timed
// operation.
func retryBusy(rng *rand.Rand, retries *atomic.Int64, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if !errors.Is(err, client.ErrBusy) || attempt >= maxBusyRetries {
			return err
		}
		retries.Add(1)
		shift := attempt
		if shift > 5 {
			shift = 5
		}
		wait := 100 * time.Microsecond << shift
		time.Sleep(wait/2 + time.Duration(rng.Int63n(int64(wait/2))))
	}
}

// kvRep carries one repetition of a served workload from set-up to the
// restart check.
type kvRep struct {
	cfg     repConfig
	ck      *checks
	res     repResult
	env     *kvEnv
	retries atomic.Int64
	// setupBlocks is what set-up wrote, in 4 KiB blocks.
	setupBlocks int64
	// warmGet is the closed-loop GET latency of the warm-up, the served
	// side of server.overhead_us.
	warmGet latSummary
	// syncs0 is the files' sync counts (log, data, flash) when set-up ended.
	syncs0 [3]int64
}

func (r *kvRep) wrap() func(*filedev.Device) device.Dev {
	if r.cfg.tr == nil {
		return nil
	}
	return func(d *filedev.Device) device.Dev { return wrapTraced(d, "filedev", r.cfg.tr) }
}

// setup creates the database, preloads it in batches, checkpoints and
// warms the caches with uniform GETs.
func (r *kvRep) setup() error {
	defer r.cfg.tr.beginPhase("setup")()
	start := time.Now()
	dir, err := os.MkdirTemp(r.cfg.tmp, "kv-*")
	if err != nil {
		return err
	}
	if r.env, err = openKV(dir, false, r.wrap()); err != nil {
		os.RemoveAll(dir)
		return err
	}
	before := r.env.db.Snapshot()
	c, err := r.env.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Create(kvNamespace); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for base := uint64(0); base < uint64(sz.kvKeys); base += kvBatch {
		tx, err := c.Begin()
		if err != nil {
			return err
		}
		for k := base; k < base+kvBatch && k < uint64(sz.kvKeys); k++ {
			if err := tx.Set(kvNamespace, k, makeValue(k, 0, 0)); err != nil {
				tx.Abort()
				return fmt.Errorf("preloading key %d: %w", k, err)
			}
		}
		if err := retryBusy(rng, &r.retries, tx.Commit); err != nil {
			return fmt.Errorf("committing preload batch at %d: %w", base, err)
		}
	}
	ckStart := time.Now()
	if err := r.env.db.Checkpoint(); err != nil {
		return err
	}
	r.res.layer["engine.checkpoint_ms"] = ms(time.Since(ckStart))
	after := r.env.db.Snapshot()
	r.setupBlocks = after.Data.Sub(before.Data).Writes() + after.Log.Sub(before.Log).Writes() + after.Flash.Sub(before.Flash).Writes()

	lat, err := r.getLoop("warmup-get", sz.kvWarmup, r.cfg.seed+1)
	if err != nil {
		return err
	}
	r.warmGet = summarize(latencies(lat))
	r.syncs0 = [3]int64{syncsOf(r.env.log), syncsOf(r.env.data), syncsOf(r.env.flash)}
	r.res.e2e["setup_s"] = time.Since(start).Seconds()
	return nil
}

// getLoop runs kvGetCallers closed-loop callers per connection issuing
// uniform GETs for d and returns every latency.  Each value read is checked.
func (r *kvRep) getLoop(name string, d time.Duration, seed int64) ([]sample, error) {
	clients, closeAll, err := r.env.dialAll(kvClients)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	lats := make([][]sample, kvClients*kvGetCallers)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for w := range lats {
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			lat := make([]sample, 0, int(d.Seconds()*10000)+1)
			for time.Now().Before(deadline) {
				key := uint64(rng.Intn(sz.kvKeys))
				start := time.Now()
				r.cfg.tr.request(name, "client", time.Time{}, false, func() { r.get(c, key) })
				end := time.Now()
				lat = append(lat, sample{at: end, lat: end.Sub(start)})
			}
			lats[w] = lat
		}(w, clients[w%kvClients])
	}
	wg.Wait()
	var all []sample
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, nil
}

// get reads one key and checks the value; it reports whether the read
// counts as completed.
func (r *kvRep) get(c *client.Client, key uint64) bool {
	val, found, err := c.Get(kvNamespace, key)
	switch {
	case err != nil:
		r.ck.fail("GET %d: %v", key, err)
	case !found:
		r.ck.fail("GET %d: not found", key)
	default:
		if _, _, ok := checkValue(key, val); !ok {
			r.ck.fail("GET %d: value is not one any writer produced", key)
			return false
		}
		r.ck.ok(1)
		return true
	}
	return false
}

// serveMetrics fills the end-to-end values every served workload derives
// the same way from its measured window.
func (r *kvRep) serveMetrics(win *window, ops int, lat []sample) {
	sum := summarize(latencies(lat))
	e := r.res.e2e
	e["op_p50_ms"] = ms(sum.p50)
	e["op_p99_ms"] = ms(sum.p99)
	e["tpmc_sim"] = ratio(float64(ops), win.pricedElapsed().Minutes())
	if _, ok := e["written_kb_per_op"]; !ok {
		e["written_kb_per_op"] = float64(win.blocksWritten()) * device.BlockSize / 1024 / float64(ops)
	}
	win.layerCounts(r.res.layer, int64(ops))
	l := r.res.layer
	l["client.op_samples"] = float64(sum.n)
	st := r.env.srv.Stats()
	l["server.requests"] = float64(st.Requests)
	l["server.busy"] = float64(st.Busy)
	l["server.timeouts"] = float64(st.Timeout)
	l["server.admission_waits"] = float64(st.Admission.Waits)
	l["client.retries"] = float64(r.retries.Load())
	l["filedev.log.syncs"] = float64(syncsOf(r.env.log) - r.syncs0[0])
	l["filedev.data.syncs"] = float64(syncsOf(r.env.data) - r.syncs0[1])
	l["filedev.flash.syncs"] = float64(syncsOf(r.env.flash) - r.syncs0[2])
}

// restart crashes the engine, reopens the same files with recovery and
// reads every preloaded key back through the restarted server, checking
// each value.  The wall clock of a restart this short swings by a third
// between identical runs here (a few fsyncs and scheduling decide it), so
// it goes to the layer metrics; the end-to-end figure is the modelled one:
// the files were just opened, so their counters hold exactly the transfers
// of the recovery and of re-reading the data on a cold buffer, and
// recovery being single-threaded, its modelled time is the sum of what
// those transfers cost on each of the paper's devices.
func (r *kvRep) restart(stored int, valid func(key uint64, val []byte) string) error {
	defer r.cfg.tr.beginPhase("restart")()
	r.res.e2e["space_amp"] = float64(r.env.db.NumPages()) * face.PageSize / float64(stored*(8+kvValueBytes))
	if err := r.env.stop(true); err != nil {
		return fmt.Errorf("stopping before the crash: %w", err)
	}
	start := time.Now()
	env, err := openKV(r.env.dir, true, r.wrap())
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.env = env
	r.res.layer["recovery.open_ms"] = ms(time.Since(start))
	rep := env.db.RecoveryReport()
	if rep == nil {
		return fmt.Errorf("restart produced no recovery report")
	}
	recoveryCounts(r.res.layer, rep)
	if err := r.verifyAll(preloadedKeys(r.cfg.seed+3), valid); err != nil {
		return err
	}
	r.res.layer["recovery.readback_ms"] = ms(time.Since(start)) - r.res.layer["recovery.open_ms"]
	var sim time.Duration
	for _, res := range pricedResources(env.data.Stats(), env.log.Stats(), env.flash.Stats()) {
		sim += res.Busy
	}
	r.res.e2e["restart_sim_s"] = sim.Seconds()
	return nil
}

// verifyAll reads keys back from the live server, eight at a time on one
// connection, and hands each value to valid, which returns why it is wrong
// ("" = right).
func (r *kvRep) verifyAll(keys []uint64, valid func(key uint64, val []byte) string) error {
	c, err := r.env.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	const readers = 8
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += readers {
				val, found, err := c.Get(kvNamespace, keys[i])
				switch {
				case err != nil:
					r.ck.fail("read-back of %d: %v", keys[i], err)
				case !found:
					r.ck.fail("read-back of %d: lost", keys[i])
				default:
					if why := valid(keys[i], val); why != "" {
						r.ck.fail("read-back of %d: %s", keys[i], why)
					} else {
						r.ck.ok(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// preloaded accepts the value set-up wrote.
func preloaded(key uint64, val []byte) string {
	if w, seq, ok := checkValue(key, val); !ok || w != 0 || seq != 0 {
		return "not the preloaded value"
	}
	return ""
}

// preloadedKeys lists every preloaded key in a seeded order.
func preloadedKeys(seed int64) []uint64 {
	keys := make([]uint64, sz.kvKeys)
	for i, k := range rand.New(rand.NewSource(seed)).Perm(sz.kvKeys) {
		keys[i] = uint64(k)
	}
	return keys
}

// runKV runs one repetition of a served workload: set-up, the workload's
// own window and restart check, then (traced pass only) the layer drives
// that need the live server, a clean close and the removal of the files.
func runKV(cfg repConfig, ck *checks, body func(r *kvRep) error) (repResult, error) {
	r := &kvRep{cfg: cfg, ck: ck, res: newRepResult()}
	err := r.setup()
	if err == nil {
		err = body(r)
	}
	if err == nil && cfg.tr != nil {
		err = kvDrives(r)
	}
	if r.env != nil {
		// After a failure the engine is dropped, not closed: nothing needs
		// its final checkpoint.
		if serr := r.env.stop(err != nil); err == nil {
			err = serr
		}
		os.RemoveAll(r.env.dir)
	}
	return r.res, err
}

// runKVGet is one repetition of kv-get: closed-loop uniform GETs over the
// two connections, then crash, restart and the read-back of every key.
func runKVGet(cfg repConfig, ck *checks) (repResult, error) {
	return runKV(cfg, ck, func(r *kvRep) error {
		// A read-only window writes nothing; what this workload writes, it
		// writes while preloading.
		r.res.e2e["written_kb_per_op"] = float64(r.setupBlocks) * device.BlockSize / 1024 / float64(sz.kvKeys)

		endPhase := cfg.tr.beginPhase("measure")
		win := openWindow(r.env.db)
		lat, err := r.getLoop("get", time.Duration(cfg.seconds*float64(time.Second)), cfg.seed+2)
		win.close(r.env.db)
		endPhase()
		if err != nil {
			return err
		}
		r.res.rate = sliceWindow(lat, win.start, win.wall, win.steal)
		r.res.lat = r.res.rate
		r.res.e2e["ops_per_s"] = float64(len(lat)) / win.wall.Seconds()
		r.serveMetrics(win, len(lat), lat)
		return r.restart(sz.kvKeys, preloaded)
	})
}

// kvInsertPerSecond is how many fresh keys each client inserts per second
// of run time; the count is fixed so that log volume, restart time and
// space are comparable between commits.
const kvInsertPerSecond = 400

// runKVInsert is one repetition of kv-insert: two closed-loop clients
// insert interleaved fresh keys (so they share leaves and the namespace
// tail page), retrying BUSY inside the timed operation; then crash,
// restart and a read-back of every acknowledged key.
func runKVInsert(cfg repConfig, ck *checks) (repResult, error) {
	return runKV(cfg, ck, func(r *kvRep) error {
		perClient := int(kvInsertPerSecond * cfg.seconds)
		endPhase := cfg.tr.beginPhase("measure")
		win := openWindow(r.env.db)
		acked, lat, err := r.insertLoop(sz.kvKeys, perClient)
		win.close(r.env.db)
		endPhase()
		if err != nil {
			return err
		}
		r.res.rate = sliceWindow(lat, win.start, win.wall, win.steal)
		r.res.lat = r.res.rate
		r.res.e2e["ops_per_s"] = float64(len(acked)) / win.wall.Seconds()
		r.serveMetrics(win, len(acked), lat)

		if err := r.restart(sz.kvKeys+len(acked), preloaded); err != nil {
			return err
		}
		if err := r.verifyAll(acked, inserted); err != nil {
			return err
		}
		if cfg.last {
			return r.durability(sz.kvKeys + kvClients*perClient)
		}
		return nil
	})
}

// inserted accepts the value insertLoop wrote for a fresh key.
func inserted(key uint64, val []byte) string {
	if w, seq, ok := checkValue(key, val); !ok || w != uint8(1+key%kvClients) || seq != key {
		return "not the inserted value"
	}
	return ""
}

// insertOne inserts one fresh key for client w, retrying BUSY.
func (r *kvRep) insertOne(c *client.Client, rng *rand.Rand, key uint64, w int) error {
	val := makeValue(key, uint8(1+w), key)
	return retryBusy(rng, &r.retries, func() error { return c.Set(kvNamespace, key, val) })
}

// insertLoop has each client insert perClient fresh keys starting at base,
// client w taking base+w, base+w+clients, ...  It returns the acknowledged
// keys and the latency of each.
func (r *kvRep) insertLoop(base, perClient int) ([]uint64, []sample, error) {
	clients, closeAll, err := r.env.dialAll(kvClients)
	if err != nil {
		return nil, nil, err
	}
	defer closeAll()
	acked := make([][]uint64, kvClients)
	lats := make([][]sample, kvClients)
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.seed + int64(w)*104729))
			for i := 0; i < perClient; i++ {
				key := uint64(base + i*kvClients + w)
				start := time.Now()
				var err error
				r.cfg.tr.request("insert", "client", time.Time{}, false, func() { err = r.insertOne(c, rng, key, w) })
				if err != nil {
					r.ck.fail("insert of %d: %v", key, err)
					continue
				}
				r.ck.ok(1)
				end := time.Now()
				acked[w] = append(acked[w], key)
				lats[w] = append(lats[w], sample{at: end, lat: end.Sub(start)})
			}
		}(w, c)
	}
	wg.Wait()
	var keys []uint64
	var lat []sample
	for w := range acked {
		keys = append(keys, acked[w]...)
		lat = append(lat, lats[w]...)
	}
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("no insert was acknowledged")
	}
	return keys, lat, nil
}

// durabilityPerSecond is how many acknowledged inserts the durability phase
// waits for, per second of run time; durabilityReads how many uniform GETs
// follow each of them.
const (
	durabilityPerSecond = 200
	durabilityReads     = 8
)

// durability is the untimed phase after kv-insert.  Killing a process
// leaves the operating system's cache intact, so the phase discards
// unflushed writes itself: the same files are reopened through losedev,
// two clients insert until enough inserts are acknowledged, and with their
// next requests in flight the power is cut on all three devices.  The
// engine is crashed and reopened on the bare files; every acknowledged key
// must be there.
func (r *kvRep) durability(base int) error {
	defer r.cfg.tr.beginPhase("durability")()
	if err := r.env.stop(false); err != nil {
		return fmt.Errorf("closing before the durability phase: %w", err)
	}
	var devs []*losedev
	env, err := openKV(r.env.dir, true, func(d *filedev.Device) device.Dev {
		ld := newLosedev(d)
		devs = append(devs, ld)
		return ld
	})
	if err != nil {
		return fmt.Errorf("reopening through losedev: %w", err)
	}
	r.env = env
	clients, closeAll, err := env.dialAll(kvClients)
	if err != nil {
		return err
	}
	want := max(1, int64(durabilityPerSecond*r.cfg.seconds*float64(sz.reps)))
	var (
		off   atomic.Bool
		count atomic.Int64
		acked = make([][]uint64, kvClients)
		wg    sync.WaitGroup
		// enough is closed by the insert that reaches the wanted count.
		enough = make(chan struct{})
	)
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.seed + int64(w)*15485863))
			for i := 0; !off.Load(); i++ {
				key := uint64(base + i*kvClients + w)
				if err := r.insertOne(c, rng, key, w); err != nil {
					// In flight when the power went: never acknowledged.
					if !off.Load() {
						r.ck.fail("durability insert of %d: %v", key, err)
					}
					return
				}
				acked[w] = append(acked[w], key)
				if count.Add(1) == want {
					close(enough)
				}
				// Uniform reads between the inserts push the pages they
				// dirtied out of the buffer, so that unsynced flash and
				// data writes exist to be lost, not only the log's.
				for j := 0; j < durabilityReads && !off.Load(); j++ {
					if _, _, err := c.Get(kvNamespace, uint64(rng.Intn(sz.kvKeys))); err != nil && !off.Load() {
						r.ck.fail("durability read: %v", err)
					}
				}
			}
		}(w, c)
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	select {
	case <-enough:
	case <-exited: // both clients gave up; their errors are counted
	}
	off.Store(true)
	dropped := 0
	for _, d := range devs {
		dropped += d.PowerOff()
	}
	<-exited
	closeAll()
	env.stop(true) // errors here are the power cut's
	fmt.Fprintf(os.Stderr, "  durability phase: %d inserts acknowledged, %d unsynced blocks dropped at the power cut\n", count.Load(), dropped)

	if r.env, err = openKV(env.dir, true, nil); err != nil {
		return fmt.Errorf("restart after the power cut: %w", err)
	}
	for _, keys := range acked {
		if err := r.verifyAll(keys, inserted); err != nil {
			return err
		}
	}
	return nil
}
