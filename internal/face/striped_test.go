package face

import (
	"sync"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

// newStripedMVFIFO builds an mvFIFO manager with the given stripe count
// over an in-memory flash device, recording disk writes in disk.
func newStripedMVFIFO(t *testing.T, stripes, frames, group int, disk map[page.ID]page.LSN, mu *sync.Mutex) *MVFIFO {
	t.Helper()
	dev := device.New("flash", device.ProfileSamsung470, int64(frames)+256)
	m, err := NewMVFIFO(MVFIFOConfig{
		Dev:            dev,
		Frames:         frames,
		GroupSize:      group,
		SecondChance:   true,
		SegmentEntries: 64,
		Stripes:        stripes,
		DiskWrite: func(id page.ID, data page.Buf) error {
			mu.Lock()
			defer mu.Unlock()
			disk[id] = data.LSN()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stamp builds a page image whose payload is derived from id and lsn, so
// a lookup can verify it got the right version of the right page.
func stamp(id page.ID, lsn page.LSN) page.Buf {
	buf := page.NewBuf()
	buf.Init(id, page.TypeHeap)
	buf.SetLSN(lsn)
	buf[page.HeaderSize] = byte(id)
	buf[page.HeaderSize+1] = byte(lsn)
	return buf
}

// TestStripedLookupEquivalence runs one deterministic stage-in/lookup
// sequence at 1 and at 8 stripes: the hits, misses and returned images
// must be identical — striping is a locking change, not a policy change.
func TestStripedLookupEquivalence(t *testing.T) {
	run := func(stripes int) (Stats, map[page.ID]byte) {
		var mu sync.Mutex
		disk := map[page.ID]page.LSN{}
		m := newStripedMVFIFO(t, stripes, 64, 8, disk, &mu)
		if m.Stripes() != stripes {
			t.Fatalf("Stripes = %d, want %d", m.Stripes(), stripes)
		}
		// Stage three generations of 96 pages through a 64-frame cache so
		// replacement, invalidation and second chance all fire.
		for gen := 1; gen <= 3; gen++ {
			for i := 1; i <= 96; i++ {
				id := page.ID(i)
				if err := m.StageIn(id, stamp(id, page.LSN(gen*100+i)), gen%2 == 0, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		seen := map[page.ID]byte{}
		buf := page.NewBuf()
		for i := 1; i <= 96; i++ {
			id := page.ID(i)
			found, _, err := m.Lookup(id, buf)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				if buf.ID() != id {
					t.Fatalf("stripes=%d: Lookup(%d) returned page %d", stripes, id, buf.ID())
				}
				seen[id] = buf[page.HeaderSize+1]
			}
		}
		return m.Stats(), seen
	}
	s1, seen1 := run(1)
	s8, seen8 := run(8)
	if s1.Hits != s8.Hits || s1.Lookups != s8.Lookups || s1.StageIns != s8.StageIns ||
		s1.FlashPageWrites != s8.FlashPageWrites || s1.DiskPageWrites != s8.DiskPageWrites {
		t.Fatalf("striping changed behaviour:\n 1 stripe: %+v\n 8 stripes: %+v", s1, s8)
	}
	if len(seen1) != len(seen8) {
		t.Fatalf("cache contents differ: %d vs %d pages", len(seen1), len(seen8))
	}
	for id, v := range seen1 {
		if seen8[id] != v {
			t.Fatalf("page %d version differs: %d vs %d", id, v, seen8[id])
		}
	}
}

// TestStripedConcurrentLookups hammers Lookup and Contains from many
// goroutines while a writer keeps staging new versions.  Under -race this
// verifies the striped directory: no torn frame ever escapes (the payload
// must match the page id, and the LSN must be one of the versions actually
// staged for that page).
func TestStripedConcurrentLookups(t *testing.T) {
	var mu sync.Mutex
	disk := map[page.ID]page.LSN{}
	m := newStripedMVFIFO(t, 8, 128, 16, disk, &mu)

	const pages = 192
	for i := 1; i <= pages; i++ {
		id := page.ID(i)
		if err := m.StageIn(id, stamp(id, page.LSN(i)), true, true); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	var wg sync.WaitGroup
	// Writer: keeps rotating new versions through the queue.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for gen := 2; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 1; i <= pages; i++ {
				id := page.ID(i)
				if err := m.StageIn(id, stamp(id, page.LSN(gen*1000+i)), true, true); err != nil {
					t.Errorf("StageIn: %v", err)
					return
				}
			}
		}
	}()
	// Readers: every hit must be internally consistent.
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := page.NewBuf()
			for i := 0; i < 400; i++ {
				id := page.ID((g*31+i)%pages + 1)
				found, _, err := m.Lookup(id, buf)
				if err != nil {
					t.Errorf("Lookup(%d): %v", id, err)
					return
				}
				if found {
					if buf.ID() != id {
						t.Errorf("Lookup(%d) returned page %d", id, buf.ID())
						return
					}
					if buf[page.HeaderSize] != byte(id) {
						t.Errorf("page %d: torn payload", id)
						return
					}
				}
				m.Contains(id)
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()

	s := m.Stats()
	if s.Lookups == 0 || s.Hits == 0 {
		t.Fatalf("workload did not exercise lookups: %+v", s)
	}
}

// TestStripedStatsCoherent: Stats races lookups without tearing (negative
// counters, rates outside [0, 1]).
func TestStripedStatsCoherent(t *testing.T) {
	var dmu sync.Mutex
	disk := map[page.ID]page.LSN{}
	m := newStripedMVFIFO(t, 8, 64, 8, disk, &dmu)
	for i := 1; i <= 64; i++ {
		id := page.ID(i)
		if err := m.StageIn(id, stamp(id, page.LSN(i)), false, true); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := page.NewBuf()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := m.Lookup(page.ID((g*17+i)%64+1), buf); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := m.Stats()
		if s.Lookups < 0 || s.Hits < 0 || s.Hits > s.Lookups+s.StageIns {
			t.Fatalf("stats tore: %+v", s)
		}
		if hr := s.HitRate(); hr < 0 || hr > 1 {
			t.Fatalf("hit rate %v outside [0, 1]", hr)
		}
	}
	close(stop)
	wg.Wait()
}
