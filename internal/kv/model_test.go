package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/face/internal/btree"
	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/engine"
)

// checkNamespace fails t unless the namespace's tree passes btree's Check
// (key order within each leaf, separator bounds, one leaf depth, level
// marks, the next chain) and a full scan returns exactly model, in order.
func checkNamespace(t *testing.T, db *engine.DB, ns *Namespace, model map[uint64][]byte) {
	t.Helper()
	want := slices.Sorted(maps.Keys(model))
	err := db.View(context.Background(), func(tx *engine.Tx) error {
		if _, err := ns.tree.Check(tx); err != nil {
			return err
		}
		i := 0
		err := ns.Scan(tx, 0, math.MaxUint64, 0, func(key uint64, val []byte) error {
			if i >= len(want) || key != want[i] {
				t.Fatalf("full scan: pair %d has key %d, want keys %d...", i, key, want[i:min(i+3, len(want))])
			}
			if !bytes.Equal(val, model[key]) {
				t.Fatalf("full scan: key %d holds %d bytes, want %d", key, len(val), len(model[key]))
			}
			i++
			return nil
		})
		if err == nil && i != len(want) {
			t.Fatalf("full scan visited %d keys, want %d", i, len(want))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// modelValue returns a value of n bytes that only (key, version) produce.
func modelValue(key uint64, version, n int) []byte {
	v := make([]byte, n)
	x := key*0x9E3779B97F4A7C15 ^ uint64(version)*0xBF58476D1CE4E5B9 | 1
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}

// TestNamespaceMatchesModel runs seeded scripts of SETs, overwrites,
// deletes and limited scans against a map.  Fresh keys come in the orders a
// namespace sees: ascending (the preload), descending, random, two
// interleaved ascending streams (kv-insert's clients), and an ascending
// pass into the gaps of an earlier one.  Overwrites keep, shrink or grow
// the value, whose sizes run from 0 to MaxValueSize, so records move
// between cells, leaves compact, and splits cut large records apart.  Each
// transaction makes a few steps; some abort, and the map forgets them.
// Every 64 steps and at the end the whole tree must hold the map
// (checkNamespace).  Halfway through, the engine crashes and reopens.
func TestNamespaceMatchesModel(t *testing.T) {
	for _, script := range []struct {
		name string
		seed int64
		keys func() func(*rand.Rand) uint64 // a fresh generator of new keys
	}{
		{"ascending", 1, func() func(*rand.Rand) uint64 {
			var i uint64
			return func(*rand.Rand) uint64 { i++; return 10 * i }
		}},
		{"descending", 2, func() func(*rand.Rand) uint64 {
			var i uint64
			return func(*rand.Rand) uint64 { i++; return 1<<40 - 10*i }
		}},
		{"random", 3, func() func(*rand.Rand) uint64 {
			return func(rng *rand.Rand) uint64 { return uint64(rng.Int63n(1 << 40)) }
		}},
		{"interleaved", 4, func() func(*rand.Rand) uint64 {
			var next [2]uint64
			return func(rng *rand.Rand) uint64 {
				w := rng.Intn(2)
				next[w]++
				return 2*next[w] + uint64(w)
			}
		}},
		{"gaps", 5, func() func(*rand.Rand) uint64 {
			var i uint64
			return func(*rand.Rand) uint64 {
				i++
				if i <= 1000 {
					return 10 * i
				}
				return 10*(i-1000) + 5
			}
		}},
	} {
		t.Run(script.name, func(t *testing.T) {
			const steps, perTx, checkEvery = 3000, 4, 64
			cfg := memConfig()
			db, err := engine.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			ns, err := mustStore(t, db).Create(context.Background(), "model")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(script.seed))
			fresh := script.keys()
			model := map[uint64][]byte{}
			version := 0
			// size draws a value size: mostly small records, many to a
			// leaf, now and then one that takes a good part of a leaf or
			// all of it.
			size := func() int {
				switch r := rng.Intn(100); {
				case r < 75:
					return rng.Intn(200)
				case r < 95:
					return 200 + rng.Intn(1000)
				}
				return 1200 + rng.Intn(MaxValueSize-1200+1)
			}
			errAbort := errors.New("abort")
			for step := 0; step < steps; {
				// One transaction of perTx steps; its effects go into the
				// map only once it commits.
				pending := maps.Clone(model)
				abort := rng.Intn(20) == 0
				var touched []uint64
				err := db.Update(context.Background(), func(tx *engine.Tx) error {
					for range perTx {
						var k uint64
						live := slices.Sorted(maps.Keys(pending))
						switch r := rng.Intn(100); {
						case r < 15 && len(live) > 0: // delete
							k = live[rng.Intn(len(live))]
							existed, err := ns.Delete(tx, k)
							if err != nil || !existed {
								t.Fatalf("Delete(%d) = %v, %v", k, existed, err)
							}
							delete(pending, k)
						case r < 45 && len(live) > 0: // overwrite: same size, shrink or grow
							k = live[rng.Intn(len(live))]
							n := len(pending[k])
							switch rng.Intn(3) {
							case 1:
								n = rng.Intn(n + 1)
							case 2:
								n = min(MaxValueSize, n+1+rng.Intn(300))
							}
							version++
							pending[k] = modelValue(k, version, n)
						case r < 50 && len(live) > 0: // limited scan
							lo := live[rng.Intn(len(live))]
							limit := 1 + rng.Intn(20)
							var want []uint64
							for _, key := range live {
								if key >= lo && len(want) < limit {
									want = append(want, key)
								}
							}
							var got []uint64
							if err := ns.Scan(tx, lo, math.MaxUint64, limit, func(key uint64, val []byte) error {
								if !bytes.Equal(val, pending[key]) {
									t.Fatalf("Scan: key %d holds %d bytes, want %d", key, len(val), len(pending[key]))
								}
								got = append(got, key)
								return nil
							}); err != nil {
								return err
							}
							if !slices.Equal(got, want) {
								t.Fatalf("Scan(%d, limit %d) = %v, want %v", lo, limit, got, want)
							}
							continue
						default: // a fresh key
							if k = fresh(rng); pending[k] != nil {
								continue
							}
							version++
							pending[k] = modelValue(k, version, size())
						}
						if v, ok := pending[k]; ok {
							if err := ns.Set(tx, nil, k, v); err != nil {
								return err
							}
						}
						touched = append(touched, k)
						got, found, err := ns.Get(tx, k)
						if err != nil || found != (pending[k] != nil) || !bytes.Equal(got, pending[k]) {
							t.Fatalf("Get(%d) in the transaction = %d bytes, %v, %v; want %d bytes", k, len(got), found, err, len(pending[k]))
						}
					}
					if abort {
						return errAbort
					}
					return nil
				})
				if abort && !errors.Is(err, errAbort) || !abort && err != nil {
					t.Fatalf("step %d: Update = %v", step, err)
				}
				if !abort {
					model = pending
				}
				for _, k := range touched {
					if got, found := get(t, db, ns, k); found != (model[k] != nil) || !bytes.Equal(got, model[k]) {
						t.Fatalf("step %d: Get(%d) = %d bytes, %v; want %d bytes", step, k, len(got), found, len(model[k]))
					}
				}
				step += perTx
				if step%checkEvery == 0 || step >= steps {
					checkNamespace(t, db, ns, model)
				}
				if step == steps/2 {
					db.Crash()
					cfg.Recover = true
					if db, err = engine.Open(cfg); err != nil {
						t.Fatal(err)
					}
					if ns, err = mustStore(t, db).Namespace("model"); err != nil {
						t.Fatal(err)
					}
					checkNamespace(t, db, ns, model)
				}
			}
		})
	}
}

// TestAscendingPreloadFillsLeaves: the preload of the served workloads,
// 25 000 ascending keys of 128-byte values in batches of 500, fills every
// leaf but the last with 28 records, 893 leaves in all, under one inner
// level: a GET reads the root, an inner node and a leaf.
func TestAscendingPreloadFillsLeaves(t *testing.T) {
	const keys, batch, valueSize, perLeaf = 25000, 500, 128, 28
	db := openMem(t)
	defer db.Close()
	ns, err := mustStore(t, db).Create(context.Background(), "preload")
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, valueSize)
	for base := uint64(0); base < keys; base += batch {
		err := db.Update(context.Background(), func(tx *engine.Tx) error {
			for k := base; k < base+batch; k++ {
				if err := ns.Set(tx, nil, k, val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var s btree.Shape
	if err := db.View(context.Background(), func(tx *engine.Tx) (err error) {
		s, err = ns.tree.Check(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if want := (keys + perLeaf - 1) / perLeaf; len(s.Leaves) != want {
		t.Fatalf("%d ascending keys take %d leaves, want %d", keys, len(s.Leaves), want)
	}
	if len(s.Levels) != 3 {
		t.Fatalf("the tree has %d levels, want 3", len(s.Levels))
	}
	counts := s.Levels[2]
	for i, n := range counts[:len(counts)-1] {
		if n != perLeaf {
			t.Fatalf("leaf %d of %d holds %d records, want %d", i, len(counts), n, perLeaf)
		}
	}
}

// TestSetQueuesForLeafWithoutUpgrade: two transactions SET keys of one
// leaf.  The first holds its leaf lock, past its write, until a gate opens;
// the second must wait for the leaf, and neither may upgrade a lock or be a
// deadlock victim.  A SET that read its leaf under a shared lock before
// writing it would upgrade, and two of them would deadlock.
func TestSetQueuesForLeafWithoutUpgrade(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	ns, err := mustStore(t, db).Create(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	set(t, db, ns, 10, []byte("ten"))
	set(t, db, ns, 20, []byte("twenty"))
	before := db.Snapshot().Locks

	ctx := context.Background()
	written, gate := make(chan struct{}), make(chan struct{})
	first, second := make(chan error, 1), make(chan error, 1)
	go func() {
		first <- db.Update(ctx, func(tx *engine.Tx) error {
			if err := ns.Set(tx, nil, 10, []byte("TEN")); err != nil {
				return err
			}
			close(written)
			<-gate
			return nil
		})
	}()
	<-written
	go func() {
		second <- db.Update(ctx, func(tx *engine.Tx) error { return ns.Set(tx, nil, 20, []byte("TWENTY")) })
	}()
	for deadline := time.Now().Add(10 * time.Second); db.Snapshot().Locks.Waits == before.Waits; {
		if time.Now().After(deadline) {
			t.Fatal("the second SET never waited for a lock")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-second:
		t.Fatalf("the second SET finished (%v) while the first held its leaf", err)
	default:
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("first SET: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second SET: %v", err)
	}
	after := db.Snapshot().Locks
	if after.Upgrades != before.Upgrades || after.Deadlocks != before.Deadlocks {
		t.Fatalf("the SETs made %d lock upgrades and %d deadlocks, want none", after.Upgrades-before.Upgrades, after.Deadlocks-before.Deadlocks)
	}
	for k, want := range map[uint64]string{10: "TEN", 20: "TWENTY"} {
		if got, ok := get(t, db, ns, k); !ok || string(got) != want {
			t.Fatalf("Get(%d) = %q, %v; want %q", k, got, ok, want)
		}
	}
}

// TestConcurrentSetsSplitWithoutDeadlock: eight writers insert
// interleaved ascending keys into one namespace, each key its own
// transaction, while a reader looks keys up.  The values are large, four
// to a leaf, so leaves split all the time and their parents split too.
// Writers of one leaf queue for it, and a writer that splits it locks the
// parents no waiting transaction holds: no transaction may be a deadlock
// victim, and the tree must end up holding every key.
func TestConcurrentSetsSplitWithoutDeadlock(t *testing.T) {
	const writers, perWriter, valueSize = 8, 160, 900
	db := openMem(t)
	defer db.Close()
	ns, err := mustStore(t, db).Create(context.Background(), "race")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	done := make(chan struct{})
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				k := uint64(i*writers + w)
				if err := db.Update(ctx, func(tx *engine.Tx) error {
					return ns.Set(tx, nil, k, modelValue(k, 0, valueSize))
				}); err != nil {
					errs <- fmt.Errorf("Set(%d): %w", k, err)
					return
				}
			}
		}()
	}
	go func() {
		defer close(errs)
		for k := uint64(0); ; k = (k + 7) % (writers * perWriter) {
			select {
			case <-done:
				return
			default:
			}
			err := db.View(ctx, func(tx *engine.Tx) error {
				v, found, err := ns.Get(tx, k)
				if err == nil && found && !bytes.Equal(v, modelValue(k, 0, valueSize)) {
					err = fmt.Errorf("Get(%d) read %d bytes of another value", k, len(v))
				}
				return err
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("locks: %+v", db.Snapshot().Locks)
	if d := db.Snapshot().Locks.Deadlocks; d != 0 {
		t.Fatalf("%d deadlocks", d)
	}
	model := map[uint64][]byte{}
	for k := range uint64(writers * perWriter) {
		model[k] = modelValue(k, 0, valueSize)
	}
	checkNamespace(t, db, ns, model)
	var s btree.Shape
	if err := db.View(ctx, func(tx *engine.Tx) (err error) {
		s, err = ns.tree.Check(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(s.Levels) < 3 {
		t.Fatalf("the tree has %d levels, want an internal split (3 or more)", len(s.Levels))
	}
}

// memConfig is the configuration of openMem, on fresh simulated devices.
func memConfig() engine.Config {
	return engine.Config{
		DataDev:     device.New("kv-data", device.ProfileCheetah15K, 1<<16),
		LogDev:      device.New("kv-log", device.ProfileCheetah15K, 1<<17),
		BufferPages: 256,
		Policy:      engine.PolicyNone,
	}
}
