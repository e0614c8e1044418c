package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reprolab/face/internal/device/filedev"
)

// BenchmarkForceFile is the commit path's log layer on a real file with
// fsync on: Append of a 100-byte update record and Force past it, from one
// committer and from four, set up the way the engine sets the log up under
// page locks.  Beside ns/op and B/op it reports what one device force costs
// the file: barriers per force and blocks written per force (1 and about 1;
// 2 and 3 when the partial tail block was staged, synced and rewritten in
// place), and how many commits one force covers.
func BenchmarkForceFile(b *testing.B) {
	for _, committers := range []int{1, 4} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			dev, err := filedev.Open("log", filepath.Join(b.TempDir(), "log"), 1<<16, filedev.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer dev.Close()
			m, err := Open(dev)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			m.AddCommitter(committers)
			before, after := make([]byte, 50), make([]byte, 50)
			syncs0, writes0 := dev.Syncs(), dev.Stats().Writes()

			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						lsn, err := m.Append(&Record{Type: TypeUpdate, TxID: 1, PageID: 7, Offset: 64, Before: before, After: after})
						if err == nil {
							err = m.Force(lsn + 1)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if forces := float64(m.Forces()); forces > 0 {
				b.ReportMetric(float64(dev.Syncs()-syncs0)/forces, "barriers/force")
				b.ReportMetric(float64(dev.Stats().Writes()-writes0)/forces, "blocks/force")
				b.ReportMetric(float64(b.N)/forces, "commits/force")
			}
		})
	}
}
