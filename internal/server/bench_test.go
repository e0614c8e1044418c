package server

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reprolab/face/internal/server/client"
)

// startBenchServer serves a file-backed database holding keys 0..keys-1
// of namespace "b" and returns its address.
func startBenchServer(b *testing.B, fsync bool, keys int) string {
	b.Helper()
	dir := b.TempDir()
	addr := serveDB(b, openDirFsync(b, dir, DefaultWriters, fsync), dir, Config{}).addr

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Create("b"); err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 128)
	for k := 0; k < keys; k += 100 {
		txn, err := c.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for i := k; i < k+100 && i < keys; i++ {
			if err := txn.Set("b", uint64(i), val); err != nil {
				b.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	return addr
}

// BenchmarkServerGetLoopback is the loopback round trip of one GET at a
// time on one connection: wire, the connection's reader and writer, a View
// of a buffered page, and the client.  Its allocs/op guard the GET path
// against gaining a per-request allocation (client and server share the
// process, so the figure counts both sides).
func BenchmarkServerGetLoopback(b *testing.B) {
	const keys = 1000
	addr := startBenchServer(b, false, keys)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := c.Get("b", uint64(i%keys)); err != nil || !found {
			b.Fatalf("Get = found=%v err=%v", found, err)
		}
	}
}

// BenchmarkServerMixedPipelined is the served write path under overlap:
// eight callers on each of two connections, 80 % GET / 20 % SET of existing
// keys, over files with fsync on — each SET waits for a log force, and how
// many of them share one sets the figure.
func BenchmarkServerMixedPipelined(b *testing.B) {
	const (
		keys    = 1000
		conns   = 2
		callers = 8
	)
	addr := startBenchServer(b, true, keys)
	var cs [conns]*client.Client
	for i := range cs {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}
	val := make([]byte, 128)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, conns*callers)
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < conns*callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cs[w%conns]
			rng := rand.New(rand.NewSource(int64(w)))
			for next.Add(1) <= int64(b.N) {
				key := uint64(rng.Intn(keys))
				var err error
				if rng.Intn(5) == 0 {
					err = client.RetryBusy(context.Background(), func() error { return c.Set("b", key, val) })
				} else {
					_, _, err = c.Get("b", key)
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d, key %d: %w", w, key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
}

// BenchmarkServerBatchLoad is the served bulk load: batches of 500 fresh
// ascending keys with 128-byte values, each a Txn whose Sets are
// pipelined and whose Commit writes one update record per leaf, over files
// without fsync.  One op is one batch; ns/key and B/key divide it by its
// keys (B/key counts client and server, which share the process).
func BenchmarkServerBatchLoad(b *testing.B) {
	const batch = 500
	addr := startBenchServer(b, false, 0)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := make([]byte, 128)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn, err := c.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for k := uint64(i * batch); k < uint64((i+1)*batch); k++ {
			if err := txn.Set("b", k, val); err != nil {
				b.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	keys := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/keys, "ns/key")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/keys, "B/key")
}
